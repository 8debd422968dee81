package store

import "repro/internal/obs"

// metOpens counts store opens process-wide in the stack's Default
// registry; a reopen after restart is exactly what it is for, so it has
// no per-instance twin. Every other store number lives on the Store and
// reaches /metrics/prom through Stats, via the service that holds it.
var metOpens = obs.Default.Counter("cogmimod_store_opens_total",
	"Durable stores opened (or reopened after restart).")
