package cluster

import (
	"fmt"

	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ShardRequest is the wire form of one shard: a contiguous chunk range
// of a named kernel run. Everything the worker needs to reproduce the
// chunks bit-exactly is here — the kernel name and flat params rebuild
// the trials, Seed and Trials rebuild the Plan (and thus the per-chunk
// seeds), and [ChunkLo, ChunkHi) selects the slice of that plan this
// shard owns. ChunkSize is carried explicitly so a worker built with a
// different chunk constant refuses the shard instead of silently
// computing different statistics.
type ShardRequest struct {
	Kernel    string             `json:"kernel"`
	Params    map[string]float64 `json:"params,omitempty"`
	Seed      int64              `json:"seed"`
	Trials    int                `json:"trials"`
	ChunkLo   int                `json:"chunk_lo"`
	ChunkHi   int                `json:"chunk_hi"`
	ChunkSize int                `json:"chunk_size"`

	// Tracing propagation. When Trace is set the worker records its
	// shard execution spans locally and ships them back in the result;
	// TraceID/ParentSpan parent them into the coordinator's timeline.
	// None of this can affect the statistics — spans observe, the chunk
	// plan computes.
	TraceID    string `json:"trace_id,omitempty"`
	ParentSpan string `json:"parent_span,omitempty"`
	Trace      bool   `json:"trace,omitempty"`
}

// Validate checks the request against this binary's plan geometry.
func (r ShardRequest) Validate() error {
	if r.Kernel == "" {
		return fmt.Errorf("cluster: shard request has no kernel")
	}
	if r.ChunkSize != sim.ChunkSize {
		return fmt.Errorf("cluster: shard chunk size %d != worker chunk size %d", r.ChunkSize, sim.ChunkSize)
	}
	if r.Trials <= 0 {
		return fmt.Errorf("cluster: shard trials %d must be positive", r.Trials)
	}
	chunks := sim.Plan{Seed: r.Seed, Trials: r.Trials}.Chunks()
	if r.ChunkLo < 0 || r.ChunkHi > chunks || r.ChunkLo >= r.ChunkHi {
		return fmt.Errorf("cluster: shard range [%d, %d) outside plan of %d chunks", r.ChunkLo, r.ChunkHi, chunks)
	}
	return nil
}

// ShardResult carries the per-chunk partials of a completed shard, in
// chunk order starting at the request's ChunkLo. Partials travel as
// RunningSnapshot — Go's shortest-representation float encoding makes
// the JSON round-trip bit-exact, so merging remote partials is
// indistinguishable from merging local ones.
type ShardResult struct {
	Partials []mathx.RunningSnapshot `json:"partials"`
	WorkerID string                  `json:"worker_id,omitempty"`
	// Spans are the worker's finished spans for this shard, present only
	// when the request asked for tracing; the coordinator imports them
	// into its recorder to build one cross-node timeline.
	Spans []obs.SpanData `json:"spans,omitempty"`
}

// Runnings decodes the snapshots back into mergeable statistics.
func (r ShardResult) Runnings() []mathx.Running {
	out := make([]mathx.Running, len(r.Partials))
	for i, s := range r.Partials {
		out[i] = mathx.RunningFromSnapshot(s)
	}
	return out
}
