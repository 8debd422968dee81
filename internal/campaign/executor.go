package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync/atomic"

	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
)

// checkpoint is the durable progress record of one kernel run: the
// per-chunk partials for chunks [0, len(Partials)). It stores per-chunk
// snapshots rather than a folded prefix because sim.Executor hands back
// one partial per chunk and sim folds them itself — resume must hand
// back exactly the operation sequence an uninterrupted run folds. An
// adaptive run needs nothing more: its stopping rule is a pure function
// of the chunk prefix, so a resumed run re-decides the same rounds.
// Older checkpoints that also carry a "trace" field decode unchanged
// (encoding/json skips it).
type checkpoint struct {
	Version   int                     `json:"version"`
	Kernel    string                  `json:"kernel"`
	Params    map[string]float64      `json:"params"`
	Seed      int64                   `json:"seed"`
	Trials    int                     `json:"trials"`
	ChunkSize int                     `json:"chunk_size"`
	Partials  []mathx.RunningSnapshot `json:"partials"`
}

const checkpointVersion = 1

// runHash content-addresses one kernel run, independent of map
// ordering. It names both checkpoints and kernel-entry results.
func runHash(run sim.KernelRun) string {
	h := sha256.New()
	fmt.Fprintf(h, "kernel=%s\n", run.Kernel)
	fmt.Fprintf(h, "seed=%d\n", run.Seed)
	fmt.Fprintf(h, "trials=%d\n", run.Trials)
	fmt.Fprintf(h, "chunksize=%d\n", sim.ChunkSize)
	for _, k := range sortedFloatKeys(run.Params) {
		fmt.Fprintf(h, "param.%s=%s\n", k,
			strconv.FormatFloat(run.Params[k], 'g', -1, 64))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// ckptExecutor is a sim.Executor that persists chunk progress through
// the result store. Attached to an experiment's context it intercepts
// every kernel-named Monte-Carlo run, replays any checkpointed chunk
// prefix, computes the remaining chunks in bounded ranges and persists
// a new checkpoint after each range. It is safe for concurrent
// RunChunkRange calls (sweep drivers evaluate rows in parallel):
// distinct runs checkpoint under distinct content-addressed keys.
type ckptExecutor struct {
	store   *store.Store
	cid     string
	expIdx  int
	every   int // chunks per checkpoint interval, >= 1
	workers int
	stats   *runCounters
}

// runCounters aggregates executor activity with atomics; RunChunkRange
// runs concurrently under sweep parallelism.
type runCounters struct {
	chunksResumed  atomic.Int64
	chunksComputed atomic.Int64
	checkpoints    atomic.Int64
}

// RunChunkRange implements sim.Executor: it serves chunks [lo, hi) of
// the run, extending one checkpointed chunk prefix. A fixed run issues
// one range covering the whole plan, an adaptive run one range per
// stopping round. Chunks already in the checkpoint (resume) are served
// without recomputation and credited as done; the remainder computes in
// ranges of at most e.every chunks with a checkpoint after each. The
// progress total is not grown here — the run schedule in sim accounts
// the budget.
func (e *ckptExecutor) RunChunkRange(ctx context.Context, run sim.KernelRun, lo, hi int) ([]mathx.Running, error) {
	plan := run.Plan()
	chunks := plan.Chunks()
	if lo < 0 || hi > chunks || lo >= hi {
		return nil, fmt.Errorf("campaign: chunk range [%d, %d) outside plan of %d chunks", lo, hi, chunks)
	}
	key := ckptPrefix(e.cid, e.expIdx) + runHash(run)

	ck := e.loadFull(key, run, chunks)
	resumed := len(ck.Partials)
	if replayHi := min(resumed, hi); replayHi > lo {
		var replayedTrials int64
		for c := lo; c < replayHi; c++ {
			replayedTrials += int64(plan.ChunkTrials(c))
		}
		obs.ProgressFrom(ctx).Add(replayedTrials)
		n := int64(replayHi - lo)
		e.stats.chunksResumed.Add(n)
		metChunksResumed.Add(n)
	}

	mc := sim.MonteCarlo{Seed: run.Seed, Workers: e.workers}
	for rlo := max(resumed, lo); rlo < hi; rlo += e.every {
		rhi := rlo + e.every
		if rhi > hi {
			rhi = hi
		}
		parts, err := mc.RunKernelChunksCtx(ctx, run.Kernel, run.Params, run.Trials, rlo, rhi)
		if err != nil {
			return nil, err
		}
		for _, p := range parts {
			ck.Partials = append(ck.Partials, p.Snapshot())
		}
		e.stats.chunksComputed.Add(int64(rhi - rlo))
		metChunksComputed.Add(int64(rhi - rlo))
		if err := e.save(key, run, ck); err != nil {
			return nil, fmt.Errorf("campaign: persisting checkpoint: %w", err)
		}
	}

	out := make([]mathx.Running, hi-lo)
	for i := range out {
		out[i] = mathx.RunningFromSnapshot(ck.Partials[lo+i])
	}
	return out, nil
}

// loadFull returns the stored checkpoint for run, or an empty matching
// one when there is none or the stored record does not match the run
// (a stale record for a different budget, kernel version or chunk size
// is discarded — never trusted, never fatal).
func (e *ckptExecutor) loadFull(key string, run sim.KernelRun, chunks int) checkpoint {
	base := checkpoint{
		Version:   checkpointVersion,
		Kernel:    run.Kernel,
		Params:    run.Params,
		Seed:      run.Seed,
		Trials:    run.Trials,
		ChunkSize: sim.ChunkSize,
	}
	payload, _, ok := e.store.Get(key)
	if !ok {
		return base
	}
	var ck checkpoint
	if err := json.Unmarshal(payload, &ck); err != nil {
		_ = e.store.Delete(key)
		return base
	}
	if ck.Version != checkpointVersion ||
		ck.Kernel != run.Kernel ||
		ck.Seed != run.Seed ||
		ck.Trials != run.Trials ||
		ck.ChunkSize != sim.ChunkSize ||
		len(ck.Partials) > chunks ||
		!sameParams(ck.Params, run.Params) {
		_ = e.store.Delete(key)
		return base
	}
	return ck
}

func (e *ckptExecutor) save(key string, run sim.KernelRun, ck checkpoint) error {
	payload, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	if err := e.store.Put(key, payload, store.Meta{
		Kind: "checkpoint", Experiment: run.Kernel, Seed: run.Seed,
	}); err != nil {
		return err
	}
	e.stats.checkpoints.Add(1)
	metCheckpoints.Inc()
	return nil
}

func sameParams(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		bv, ok := b[k]
		if !ok || bv != v {
			return false
		}
	}
	return true
}
