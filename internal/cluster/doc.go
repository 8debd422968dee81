// Package cluster is the distributed shard executor: it fans one
// Monte-Carlo run out across cogmimod worker nodes and merges the
// partials into a result bit-identical to a single-process run.
//
// # Why distribution cannot change the answer
//
// The sim package's reproducibility contract is chunk-based: a run of
// (seed, trials) decomposes into fixed-size chunks, chunk i is always
// driven by the i-th splitmix64-derived seed, and per-chunk statistics
// merge in chunk order (sim.Plan is the single source of truth). A
// shard is just a contiguous chunk range, so a worker computing chunks
// [lo, hi) from (kernel, params, seed, trials) produces exactly the
// partials the local pool would have produced for those chunks. The
// Coordinator is a sim.Executor: its one method, RunChunkRange, shards
// any chunk range of a run and places every returned partial at its
// index in the range, and sim folds them left to right — the same fold
// it applies to the local pool's partials. Fixed runs (one range
// covering the plan), adaptive rounds and trace replays therefore all
// ride the same shard machinery. Scheduling (which worker, how many
// retries) decides where chunks are computed, never what they compute.
//
// # Lifecycle
//
//	           ┌─────────────┐   POST /v1/shards    ┌──────────────┐
//	sweep ───► │ Coordinator │ ───────────────────► │ worker node  │
//	(sim.      │             │ ◄─────────────────── │ ExecuteShard │
//	 With-     │  Registry ──┼──── GET /healthz ──► │              │
//	 Executor) └─────────────┘                      └──────────────┘
//
//	shard lifecycle (one contiguous chunk range per ready worker):
//
//	  dispatch ──► running ──► ok ──► partials placed at chunk index
//	     │            │
//	     │            └─ error ──► worker marked Dead, shard retried
//	     │                         with backoff+jitter on another
//	     │                         worker ("reassigned")
//	     │
//	     └─ no ready worker ──► local fallback (optional) or error
//
//	worker states (Registry, probe-driven):
//
//	  Ready ──(3 failed probes | shard hard-fails)──► Dead
//	  Ready ──(probe refused: node shutting down)───► Draining
//	  Dead/Draining ──(probe succeeds)──────────────► Ready
//
// A run fails only when some shard exhausts its 4 dispatch attempts
// (backoff 50 ms doubling to 2 s); there are no partial results,
// because a silently shorter run would be a silently different
// statistic.
//
// # Transports
//
// HTTPTransport speaks to real cogmimod nodes (POST /v1/shards,
// GET /healthz, trace ids via X-Trace-Id). Loopback implements the same
// interface in-process with injectable failures — kill, transient
// errors, slow nodes, draining — so the whole retry/reassignment
// machinery is exercised by `go test -race` without a socket.
package cluster
