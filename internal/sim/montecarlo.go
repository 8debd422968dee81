package sim

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mathx"
	"repro/internal/obs"
)

// mcTrials counts every completed Monte-Carlo trial process-wide; the
// cogmimod prefix is the stack's metric namespace (cmd/cogmimod serves
// the registry, but cogsim runs feed the same counter).
var mcTrials = obs.Default.Counter("cogmimod_mc_trials_total",
	"Monte-Carlo trials completed, summed over all runs.")

// rngPool recycles the chunk generators. A generator's state is ~4.9 KB
// and adaptive runs call the pool once per doubling round, so taking a
// fresh one per worker per call would dominate what a run allocates.
var rngPool = sync.Pool{New: func() any { return mathx.NewReusableRand() }}

// MonteCarlo executes registered kernels over a worker pool.
//
// Reproducibility contract: the trial set is split into fixed-size chunks;
// chunk i is always driven by the i-th seed derived from Seed via
// splitmix64, and per-chunk results are merged in chunk order. Any Workers
// value therefore yields bit-identical statistics.
type MonteCarlo struct {
	// Seed is the master seed all chunk streams derive from.
	Seed int64
	// Workers caps the pool size; 0 means GOMAXPROCS.
	Workers int
}

// RunKernelCtx executes trials of a registered kernel and returns the
// merged statistics. The whole plan runs as one round: through the
// Executor attached to ctx when there is one (and fanned out to worker
// nodes), on the local pool otherwise. Both paths fold the same
// per-chunk partials in the same chunk order, so they are bit-identical
// — the property pinned by the cluster golden tests. Zero trials yield
// empty statistics; a cancelled run returns the context error.
func (mc MonteCarlo) RunKernelCtx(ctx context.Context, kernel string, params map[string]float64, trials int) (mathx.Running, error) {
	run := KernelRun{Kernel: kernel, Params: params, Seed: mc.Seed, Trials: trials}
	if _, err := NewKernelBatch(kernel, params); err != nil {
		return mathx.Running{}, err
	}
	chunks := run.Plan().Chunks()
	if ExecutorFrom(ctx) != nil {
		var span *obs.Span
		ctx, span = obs.StartSpan(ctx, "cluster.run")
		span.SetAttr("kernel", kernel).
			SetAttr("trials", strconv.Itoa(trials)).
			SetAttr("chunks", strconv.Itoa(chunks))
		defer span.End()
	}
	stats, _, err := mc.runRounds(ctx, run, trials, func(int, mathx.Running) int { return chunks })
	return stats, err
}

// RunKernelChunksCtx executes only chunks [lo, hi) of the run on the
// local worker pool and returns their per-chunk partials indexed from
// lo. It is the only worker pool in the package: RunKernelCtx and the
// adaptive drivers reach it through runRounds, shard servers
// (cmd/cogmimod's POST /v1/shards) and the loopback transport call it
// directly, so the in-process test path exercises exactly the code a
// remote worker runs. It never consults the context's Executor.
//
// Each chunk is driven by exactly the seed the full run would use:
// chunk i always draws from the i-th derived seed and the derivation is
// a sequential splitmix64 walk, so seed prefixes are independent of the
// total chunk count. Each worker goroutine takes one reusable rng from
// a shared pool and reseeds it per chunk, which yields exactly the
// stream a fresh generator would.
//
// Cancellation is observed between chunks, never inside one. An
// incomplete range returns the context error and no partials — a range
// is all-or-nothing, so a retried or re-assigned shard can never
// double-count chunks. Completed trials are reported per chunk to the
// context's progress sink (obs.ProgressFrom) and to the
// cogmimod_mc_trials_total counter, and each chunk is timed as an
// "mc.chunk" span; none of this touches the trial math.
func (mc MonteCarlo) RunKernelChunksCtx(ctx context.Context, kernel string, params map[string]float64, trials, lo, hi int) ([]mathx.Running, error) {
	batch, err := NewKernelBatch(kernel, params)
	if err != nil {
		return nil, err
	}
	plan := Plan{Seed: mc.Seed, Trials: trials}
	chunks := plan.Chunks()
	if lo < 0 || hi > chunks || lo >= hi {
		return nil, fmt.Errorf("sim: chunk range [%d, %d) outside plan of %d chunks", lo, hi, chunks)
	}
	seeds := plan.Seeds()
	parts := make([]mathx.Running, hi-lo)

	progress := obs.ProgressFrom(ctx)

	workers := mc.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > hi-lo {
		workers = hi - lo
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rngPool.Get().(*mathx.ReusableRand)
			defer rngPool.Put(rng)
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= hi-lo {
					return
				}
				c := lo + i
				n := plan.ChunkTrials(c)
				rng.Reseed(seeds[c])
				_, span := obs.StartSpan(ctx, "mc.chunk")
				if span.Recording() {
					span.SetAttr("chunk", strconv.Itoa(c))
				}
				parts[i] = batch(rng.Rand, n)
				span.End()
				mcTrials.Add(int64(n))
				progress.Add(int64(n))
			}
		}()
	}
	wg.Wait()
	// Workers stop early only once ctx is done, so a live ctx here means
	// every chunk of the range ran.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return parts, nil
}

// runRounds is the round loop every run schedule shares. It reports
// total to the progress sink, then executes run's chunk plan round by
// round: next names the end of the round that starts at chunk lo, given
// the statistics folded so far, and a return of lo or less ends the
// run. Each round is dispatched to the Executor attached to ctx or, when
// there is none, to the local pool; its partials fold left to right, so
// any schedule yields statistics bit-identical to a fixed run of the
// same chunk prefix. It returns the folded statistics and the chunk
// count after each round.
func (mc MonteCarlo) runRounds(ctx context.Context, run KernelRun, total int, next func(lo int, prefix mathx.Running) int) (mathx.Running, []int, error) {
	obs.ProgressFrom(ctx).AddTotal(int64(total))
	ex := ExecutorFrom(ctx)
	var prefix mathx.Running
	var ends []int
	for lo := 0; ; {
		hi := next(lo, prefix)
		if hi <= lo {
			return prefix, ends, nil
		}
		var parts []mathx.Running
		var err error
		if ex != nil {
			parts, err = ex.RunChunkRange(ctx, run, lo, hi)
			if err == nil && len(parts) != hi-lo {
				err = fmt.Errorf("sim: executor returned %d chunk partials for [%d, %d)", len(parts), lo, hi)
			}
		} else {
			parts, err = mc.RunKernelChunksCtx(ctx, run.Kernel, run.Params, run.Trials, lo, hi)
		}
		if err != nil {
			return mathx.Running{}, nil, err
		}
		foldStart := time.Now()
		for _, p := range parts {
			prefix.Merge(p)
		}
		if ex != nil {
			obs.RecordSpan(ctx, "mc.fold", foldStart, time.Now(),
				obs.Attr{Key: "chunks", Value: strconv.Itoa(len(parts))})
		}
		ends = append(ends, hi)
		lo = hi
	}
}
