package service

import "repro/internal/obs"

// Process-wide metrics in the stack's Default registry: histograms and
// tenant-labelled series, which have no per-instance twin in Stats.
// Job and cache counters are per instance only; the HTTP layer renders
// them from one Stats snapshot per scrape, so /metrics/prom and
// /v1/stats always agree.
var (
	metJobDuration = obs.Default.Histogram("cogmimod_job_duration_seconds",
		"Wall-clock runtime of jobs that reached a worker, from start to terminal state.", nil)
	metQueueWait = obs.Default.Histogram("cogmimod_job_queue_wait_seconds",
		"Time jobs spent queued before a worker picked them up.", nil)
	metTenantJobs = obs.Default.CounterVec("cogmimod_tenant_jobs_total",
		"Jobs accepted into the queue, by submitting tenant.",
		"tenant")
	metTenantQueueWait = obs.Default.HistogramVec("cogmimod_tenant_queue_wait_seconds",
		"Time jobs spent queued before a worker picked them up, by tenant.",
		"tenant", nil)
	metQuotaRejected = obs.Default.CounterVec("cogmimod_tenant_quota_rejected_total",
		"Submissions denied by per-tenant admission quotas, by tenant.",
		"tenant")
)
