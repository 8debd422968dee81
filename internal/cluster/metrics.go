package cluster

import "repro/internal/obs"

// Shard scheduling outcomes, labelled by what happened to the attempt:
//
//	ok         shard completed and its partials were accepted
//	failed     an attempt errored (each failure counts once)
//	retried    shard was re-dispatched after a failed attempt
//	reassigned shard moved off a worker the registry declared dead
//	local      shard fell back to in-process execution
var metShards = obs.Default.CounterVec("cogmimod_shards_total",
	"Distributed shard attempts by outcome.", "status")

var metShardDuration = obs.Default.Histogram("cogmimod_shard_duration_seconds",
	"Wall-clock time of successful shard executions.",
	[]float64{0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30})

// metWorkerShards counts shards served by this process's worker
// endpoint, as opposed to shards this process dispatched.
var metWorkerShards = obs.Default.CounterVec("cogmimod_worker_shards_total",
	"Shards executed by this node's worker endpoint.", "status")

func init() {
	// Pre-seed the label values so dashboards see zeroes instead of
	// absent series before the first distributed run.
	for _, s := range []string{"ok", "failed", "retried", "reassigned", "local"} {
		metShards.With(s)
	}
	for _, s := range []string{"ok", "failed"} {
		metWorkerShards.With(s)
	}
}
