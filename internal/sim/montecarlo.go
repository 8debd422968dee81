package sim

import (
	"context"
	"fmt"
	"math/rand"
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
	if _, err := newKernelTrial(kernel, params); err != nil {
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
// chunk i always draws from the i-th derived seed, and the derivation
// is a splitmix64 walk whose i-th step has a closed form, so seed
// prefixes are independent of the total chunk count and only the
// range's own seeds are derived. Workers claim blocks of trials, never
// crossing a chunk boundary, from one counter over the range's trials.
// The first block of a chunk draws the chunk's trial seeds from the
// chunk stream, and the last block to finish folds the chunk's values
// in trial order — the serial loop of NewKernelBatch, so every partial
// is bit-identical at any worker count. Workers are not capped by the
// chunk count, so a one-chunk round still uses every worker.
//
// Cancellation is observed between trial blocks, never inside one. An
// incomplete range returns the context error and no partials — a range
// is all-or-nothing, so a retried or re-assigned shard can never
// double-count chunks. Completed trials are reported per chunk to the
// context's progress sink (obs.ProgressFrom) and to the
// cogmimod_mc_trials_total counter, and each chunk is timed as an
// "mc.chunk" span; none of this touches the trial math.
func (mc MonteCarlo) RunKernelChunksCtx(ctx context.Context, kernel string, params map[string]float64, trials, lo, hi int) ([]mathx.Running, error) {
	trial, err := newKernelTrial(kernel, params)
	if err != nil {
		return nil, err
	}
	plan := Plan{Seed: mc.Seed, Trials: trials}
	chunks := plan.Chunks()
	if lo < 0 || hi > chunks || lo >= hi {
		return nil, fmt.Errorf("sim: chunk range [%d, %d) outside plan of %d chunks", lo, hi, chunks)
	}
	workers := mc.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	r := runPool.Get().(*chunkRun)
	slots := r.slots
	if cap(slots) < hi-lo {
		slots = make([]chunkSlot, hi-lo)
	}
	*r = chunkRun{
		ctx:       ctx,
		trial:     trial,
		plan:      plan,
		lo:        lo,
		workers:   workers,
		total:     min(plan.Trials, hi*ChunkSize) - lo*ChunkSize,
		slots:     slots[:hi-lo],
		parts:     make([]mathx.Running, hi-lo),
		progress:  obs.ProgressFrom(ctx),
		recording: obs.RecorderFrom(ctx) != nil,
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			r.work()
		}()
	}
	wg.Wait()
	parts := r.parts
	clear(r.slots)
	*r = chunkRun{slots: r.slots[:0]}
	runPool.Put(r)
	// Workers stop early only once ctx is done, so a live ctx here means
	// every chunk of the range ran.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return parts, nil
}

// minBlock is the smallest block of trials a worker claims: below it
// the claim and the kernel's per-call workspace checkout stop paying
// for themselves.
const minBlock = 8

// chunkBuf is the scratch of one chunk in flight: the generator that
// draws the chunk's trial seeds, the seeds, and the values of its
// trials. It is pooled because adaptive runs start a pool once per
// doubling round.
type chunkBuf struct {
	rng   *mathx.ReusableRand
	seeds [ChunkSize]int64
	vals  [ChunkSize]float64
	start time.Time
}

var bufPool = sync.Pool{New: func() any { return &chunkBuf{rng: mathx.NewReusableRand()} }}

// chunkSlot is one chunk of the range. The first worker to claim a
// block of the chunk draws its seeds inside once; workers claiming
// later blocks block in once until the seeds are there. The worker
// whose block brings done to the chunk's trial count folds the values
// and returns buf to the pool, so no buffer is reused while a block of
// its chunk can still touch it.
type chunkSlot struct {
	buf  *chunkBuf
	once sync.Once
	done atomic.Int32
}

// chunkRun is the shared state of one RunKernelChunksCtx call. It is
// pooled, slots included, because adaptive runs make one call per
// doubling round.
type chunkRun struct {
	ctx       context.Context
	trial     TrialFunc
	plan      Plan
	lo        int
	workers   int
	total     int          // trials in the range
	next      atomic.Int64 // first unclaimed trial, counted from the range's first
	slots     []chunkSlot
	parts     []mathx.Running
	progress  obs.Progress
	recording bool
}

var runPool = sync.Pool{New: func() any { return new(chunkRun) }}

// work is one worker's life: claim, evaluate and account trial blocks
// until every trial of the range is claimed or ctx is done.
func (r *chunkRun) work() {
	for r.ctx.Err() == nil {
		i, lo, hi, ok := r.claim()
		if !ok {
			return
		}
		s := &r.slots[i]
		s.once.Do(func() { r.draw(s, i) })
		r.trial(s.buf.seeds[lo:hi], s.buf.vals[lo:hi])
		if int(s.done.Add(int32(hi-lo))) == r.plan.ChunkTrials(r.lo+i) {
			r.finish(s, i)
		}
	}
}

// claim takes the range's next block of trials by guided
// self-scheduling — half of the remaining trials' per-worker share, but
// at least minBlock — capped at the end of the chunk the block starts
// in. It returns the chunk's index in the range and the block's trials
// within the chunk; ok is false once every trial is claimed.
func (r *chunkRun) claim() (i, lo, hi int, ok bool) {
	for {
		next := r.next.Load()
		rem := r.total - int(next)
		if rem <= 0 {
			return 0, 0, 0, false
		}
		lo = int(next) % ChunkSize
		blk := min(max(minBlock, rem/(2*r.workers)), rem, ChunkSize-lo)
		if r.next.CompareAndSwap(next, next+int64(blk)) {
			return int(next) / ChunkSize, lo, lo + blk, true
		}
	}
}

// draw takes a buffer for the range's i-th chunk and fills it with the
// chunk's trial seeds.
func (r *chunkRun) draw(s *chunkSlot, i int) {
	b := bufPool.Get().(*chunkBuf)
	b.start = time.Now()
	c := r.lo + i
	b.rng.Reseed(r.plan.ChunkSeed(c))
	drawSeeds(b.rng.Rand, b.seeds[:r.plan.ChunkTrials(c)])
	s.buf = b
}

// finish folds the range's i-th chunk, whose trials have all been
// evaluated, in trial order and returns its buffer to the pool.
func (r *chunkRun) finish(s *chunkSlot, i int) {
	c := r.lo + i
	n := r.plan.ChunkTrials(c)
	var acc mathx.Running
	foldInto(&acc, s.buf.vals[:n])
	r.parts[i] = acc
	// The chunk attribute is built only for a recorder: variadic
	// attributes escape, so passing one unconditionally would allocate
	// per chunk.
	if r.recording {
		obs.RecordSpan(r.ctx, "mc.chunk", s.buf.start, time.Now(), obs.Attr{Key: "chunk", Value: strconv.Itoa(c)})
	} else {
		obs.RecordSpan(r.ctx, "mc.chunk", s.buf.start, time.Now())
	}
	bufPool.Put(s.buf)
	mcTrials.Add(int64(n))
	r.progress.Add(int64(n))
}

// drawSeeds fills seeds with successive Int63 draws of rng: trial t of
// a chunk is seeded by the chunk stream's t-th draw.
func drawSeeds(rng *rand.Rand, seeds []int64) {
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
}

// foldInto adds vals to acc in order. Running.Add is order-sensitive,
// so trial order is what makes a chunk's partial bit-reproducible.
func foldInto(acc *mathx.Running, vals []float64) {
	for _, v := range vals {
		acc.Add(v)
	}
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
