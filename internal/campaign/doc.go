// Package campaign executes named batches of experiments with durable,
// crash-safe progress: a campaign killed at any instant — including
// SIGKILL, with no graceful shutdown — resumes from its last checkpoint
// and produces a final report byte-identical to an uninterrupted run.
//
// # Why this is possible
//
// Every Monte-Carlo run in the repository decomposes into the chunk
// Plan (internal/sim): chunk i always covers the same trial indices and
// always draws from the i-th seed of a prefix-stable splitmix64 walk,
// and per-chunk partial statistics merge strictly in chunk order. The
// distributed executor (internal/cluster) exploited that to survive
// worker death; this package extends the same contract across process
// death. A checkpoint is the list of per-chunk mathx.RunningSnapshot
// partials for chunks [0, k): resume re-enters the Plan at chunk k,
// computes the remaining chunks, and the final left-to-right fold is
// the identical operation sequence an uninterrupted run performs — so
// the statistics, and therefore the rendered report, match bit for bit.
// The invariant is pinned by mathx's fold property tests and this
// package's SIGKILL crash test.
//
// # Spec
//
// A Spec is a named list of entries. Each entry is either a registry
// experiment (any of the cogsim IDs: fig6a, table2, ext-coopber, ...)
// or a raw Monte-Carlo kernel run with an explicit trial budget:
//
//	{
//	  "name": "paper-figures",
//	  "checkpoint_chunks": 4,
//	  "experiments": [
//	    {"id": "fig6a", "seed": 1},
//	    {"id": "ext-coopber", "seed": 1, "quick": true},
//	    {"kernel": "coop.ber", "seed": 9,
//	     "kernel_params": {"mt": 2, "mr": 2, "snr_db": 8, "bits": 32},
//	     "trials": 65536}
//	  ]
//	}
//
// A registry entry is a service request: it runs through
// service.ExperimentRunner, params (an adaptive budget among them)
// included, with a checkpointing sim.Executor attached, so
// kernel-based experiments (ext-coopber) checkpoint at chunk
// granularity; other drivers checkpoint at whole-experiment
// granularity via the result store. Kernel entries run the named
// kernel through sim.MonteCarlo.RunKernelCtx under the same executor
// and render a one-row report. The executor's one method,
// RunChunkRange, serves fixed runs, adaptive rounds and trace replays
// alike from the same chunk checkpoint. A resumed adaptive run
// re-decides its stops from the checkpointed prefix — the rule is a
// pure function of it — so it reaches the same rounds without
// recomputing a chunk. Campaign IDs are content addresses of the spec,
// so resubmitting the same spec resumes rather than restarts.
//
// # Storage
//
// Everything persists through internal/store under structured keys:
//
//	campaign/<id>/spec      the submitted spec (resume-on-boot reads these)
//	campaign/<id>/state     {"status": "running" | "done" | "failed"}
//	campaign/<id>/ckpt/...  per-kernel-run chunk checkpoints (deleted on completion)
//	campaign/<id>/report    the final rendered report
//
// Completed experiment results are stored under the service's canonical
// request key (kind "result"), so a campaign that computed fig6a warms
// the cogmimod cache for the equivalent POST /v1/experiments request.
package campaign
