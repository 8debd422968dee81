package cluster

import (
	"context"
	"strconv"

	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ExecuteShard runs one shard on this node: it validates the request
// against the local plan geometry, rebuilds the kernel trials from the
// registry, executes exactly the requested chunk range with workers
// goroutines, and returns the per-chunk partials in chunk order. Both
// the HTTP shard endpoint (cmd/cogmimod) and the loopback transport
// call it, so the in-process test path exercises the same code a remote
// worker runs.
//
// workerID tags the result so coordinators can attribute partials;
// workers <= 0 uses GOMAXPROCS.
func ExecuteShard(ctx context.Context, workerID string, workers int, req ShardRequest) (ShardResult, error) {
	if err := req.Validate(); err != nil {
		metWorkerShards.With("failed").Inc()
		return ShardResult{}, err
	}

	// When the coordinator asked for tracing, record this shard's spans
	// into a private single-trace recorder and ship them back in the
	// result — the worker keeps nothing. The span parents itself to the
	// coordinator's shard span via the request's trace/parent ids.
	var rec *obs.TraceRecorder
	var span *obs.Span
	if req.Trace && req.TraceID != "" {
		rec = obs.NewTraceRecorder(1, 2048)
		ctx = obs.WithRecorder(ctx, rec)
		ctx = obs.WithTraceID(ctx, req.TraceID)
		if req.ParentSpan != "" {
			ctx = obs.WithSpanParent(ctx, obs.SpanContext{TraceID: req.TraceID, SpanID: req.ParentSpan})
		}
		ctx, span = obs.StartSpan(ctx, "shard.execute")
		span.SetAttr("node", workerID).
			SetAttr("chunk_lo", strconv.Itoa(req.ChunkLo)).
			SetAttr("chunk_hi", strconv.Itoa(req.ChunkHi))
	}

	mc := sim.MonteCarlo{Seed: req.Seed, Workers: workers}
	parts, err := mc.RunKernelChunksCtx(ctx, req.Kernel, req.Params, req.Trials, req.ChunkLo, req.ChunkHi)
	if err != nil {
		metWorkerShards.With("failed").Inc()
		return ShardResult{}, err
	}
	snaps := make([]mathx.RunningSnapshot, len(parts))
	for i := range parts {
		snaps[i] = parts[i].Snapshot()
	}
	metWorkerShards.With("ok").Inc()
	res := ShardResult{Partials: snaps, WorkerID: workerID}
	if rec != nil {
		span.End() // must end before collection or the span is lost
		res.Spans = rec.Spans(req.TraceID)
	}
	return res, nil
}
