package sim

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mathx"
)

func init() {
	// ztest.kernel.normal scores one N(0, 1) draw per trial, by
	// Box-Muller over two uniforms of the trial's seed.
	RegisterKernel("ztest.kernel.normal", Kernel{Build: func(map[string]float64) (TrialFunc, error) {
		return func(seeds []int64, vals []float64) {
			for i, s := range seeds {
				st := uint64(s)
				u1, u2 := 1-unitFloat(&st), unitFloat(&st)
				vals[i] = math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
			}
		}, nil
	}})
	// ztest.kernel.coin scores 1 with probability p (default 0.3).
	RegisterKernel("ztest.kernel.coin", Kernel{Build: func(params map[string]float64) (TrialFunc, error) {
		p, ok := params["p"]
		if !ok {
			p = 0.3
		}
		return func(seeds []int64, vals []float64) {
			for i, s := range seeds {
				st := uint64(s)
				vals[i] = 0
				if unitFloat(&st) < p {
					vals[i] = 1
				}
			}
		}, nil
	}})
	// ztest.kernel.hook calls chunkHook (when set) before every block
	// of trials, letting tests act between blocks, e.g. cancel mid-run.
	RegisterKernel("ztest.kernel.hook", Kernel{Build: func(map[string]float64) (TrialFunc, error) {
		return func(seeds []int64, vals []float64) {
			if chunkHook != nil {
				chunkHook()
			}
			uniformTrial(seeds, vals)
		}, nil
	}})
}

// chunkHook is set by a test before a ztest.kernel.hook run and cleared
// after it returns; the pool has joined every worker by then.
var chunkHook func()

// runKernel is RunKernelCtx on a background context, failing the test
// on error.
func runKernel(t *testing.T, mc MonteCarlo, kernel string, trials int) mathx.Running {
	t.Helper()
	r, err := mc.RunKernelCtx(context.Background(), kernel, nil, trials)
	if err != nil {
		t.Fatalf("%s, %d trials: %v", kernel, trials, err)
	}
	return r
}

func TestRunMeanUniform(t *testing.T) {
	r := runKernel(t, MonteCarlo{Seed: 1}, "ztest.kernel.adapt", 200000)
	if r.N() != 200000 {
		t.Fatalf("N = %d", r.N())
	}
	if math.Abs(r.Mean()-0.5) > 0.005 {
		t.Errorf("mean = %v, want ~0.5", r.Mean())
	}
	if math.Abs(r.Variance()-1.0/12) > 0.005 {
		t.Errorf("variance = %v, want ~1/12", r.Variance())
	}
}

// TestDeterminismAcrossWorkerCounts: the worker count changes
// wall-clock time, never a bit of the statistics — including a short
// tail chunk.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	ref := runKernel(t, MonteCarlo{Seed: 42, Workers: 1}, "ztest.kernel.normal", 10000)
	for _, w := range []int{2, 3, 4, 7, 16} {
		got := runKernel(t, MonteCarlo{Seed: 42, Workers: w}, "ztest.kernel.normal", 10000)
		if got.Snapshot() != ref.Snapshot() {
			t.Errorf("workers=%d: %+v, want %+v", w, got.Snapshot(), ref.Snapshot())
		}
	}
}

func TestRunCount(t *testing.T) {
	r := runKernel(t, MonteCarlo{Seed: 9}, "ztest.kernel.coin", 100000)
	if math.Abs(r.Mean()-0.3) > 0.01 {
		t.Errorf("fraction = %v, want ~0.3", r.Mean())
	}
	// Deterministic across worker counts too.
	a := runKernel(t, MonteCarlo{Seed: 5, Workers: 1}, "ztest.kernel.coin", 5000)
	b := runKernel(t, MonteCarlo{Seed: 5, Workers: 8}, "ztest.kernel.coin", 5000)
	if a != b {
		t.Errorf("coin counts not deterministic: %+v vs %+v", a.Snapshot(), b.Snapshot())
	}
}

// TestRunBatches: every partial covers exactly one chunk — ChunkSize
// trials, the last one the short remainder — no matter how many
// workers split its trials.
func TestRunBatches(t *testing.T) {
	const trials = 3*ChunkSize + 5
	for _, workers := range []int{1, 4} {
		parts, err := MonteCarlo{Seed: 3, Workers: workers}.RunKernelChunksCtx(
			context.Background(), "ztest.kernel.adapt", nil, trials, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		for c, p := range parts {
			want := int64(ChunkSize)
			if c == 3 {
				want = 5
			}
			if p.N() != want {
				t.Errorf("workers=%d: chunk %d covered %d trials, want %d", workers, c, p.N(), want)
			}
		}
	}
}

func TestEdgeCases(t *testing.T) {
	mc := MonteCarlo{Seed: 1, Workers: 64}
	// More workers than trials must not deadlock or double-count.
	if r := runKernel(t, mc, "ztest.kernel.coin", 3); r.N() != 3 {
		t.Errorf("N=%d, want 3", r.N())
	}
	// Zero trials: empty statistics and no error.
	r, err := mc.RunKernelCtx(context.Background(), "ztest.kernel.adapt", nil, 0)
	if err != nil || r.N() != 0 {
		t.Errorf("zero trials: N=%d err=%v", r.N(), err)
	}
	if _, err := mc.RunKernelCtx(context.Background(), "ztest.kernel.nope", nil, 10); err == nil {
		t.Error("unknown kernel accepted")
	}
	for _, r := range [][2]int{{-1, 1}, {0, 3}, {1, 1}} {
		if _, err := mc.RunKernelChunksCtx(context.Background(), "ztest.kernel.adapt", nil, 2*ChunkSize, r[0], r[1]); err == nil {
			t.Errorf("chunk range %v accepted", r)
		}
	}
}

func TestChunkingCoversExactly(t *testing.T) {
	// Trial counts straddling chunk boundaries must all be visited exactly
	// once: the merged N is the proof.
	for _, n := range []int{1, ChunkSize - 1, ChunkSize, ChunkSize + 1, 3*ChunkSize + 17} {
		if r := runKernel(t, MonteCarlo{Seed: 2, Workers: 5}, "ztest.kernel.adapt", n); r.N() != int64(n) {
			t.Errorf("trials=%d: N=%d", n, r.N())
		}
	}
}

// TestPlanNearMaxInt: the chunk count rounds up without overflowing,
// so a budget near math.MaxInt is a long plan, never a negative one
// that would let a run end at zero trials.
func TestPlanNearMaxInt(t *testing.T) {
	p := Plan{Trials: math.MaxInt}
	last := math.MaxInt / ChunkSize
	if got := p.Chunks(); got != last+1 {
		t.Fatalf("Plan{MaxInt}.Chunks() = %d, want %d", got, last+1)
	}
	if got := p.ChunkTrials(last); got != math.MaxInt%ChunkSize {
		t.Fatalf("last chunk covers %d trials, want %d", got, math.MaxInt%ChunkSize)
	}
	if got := realizedTrials(math.MaxInt, last+1); got != math.MaxInt {
		t.Fatalf("realizedTrials over the whole MaxInt plan = %d", got)
	}
	if got := realizedTrials(math.MaxInt, last); got != last*ChunkSize {
		t.Fatalf("realizedTrials one chunk short = %d, want %d", got, last*ChunkSize)
	}
}

// TestRunBatchesDeterministicAcrossWorkers: a fixed run equals the
// left-to-right fold of its chunk partials, whichever pool size
// computed them.
func TestRunBatchesDeterministicAcrossWorkers(t *testing.T) {
	const trials = 3*ChunkSize + 5
	want := runKernel(t, MonteCarlo{Seed: 77, Workers: 1}, "ztest.kernel.normal", trials)
	parts, err := MonteCarlo{Seed: 77, Workers: 9}.RunKernelChunksCtx(
		context.Background(), "ztest.kernel.normal", nil, trials, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	var got mathx.Running
	for _, p := range parts {
		got.Merge(p)
	}
	if got.Snapshot() != want.Snapshot() {
		t.Errorf("folded partials %+v != fixed run %+v", got.Snapshot(), want.Snapshot())
	}
}

// TestRunKernelChunksReusesGenerators: chunk buffers — generator plus
// seed and value arrays — and the per-call run state with its chunk
// slots come from pools, so once they are warm a call allocates far
// less than one ~4.9 KB generator state, however many workers it
// starts. Adaptive runs call the pool once per doubling
// round, which is what makes this matter. The single-chunk ranges at
// two workers split the chunk into trial blocks across both workers.
func TestRunKernelChunksReusesGenerators(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Put items at random")
	}
	const calls = 50
	mc := MonteCarlo{Seed: 5, Workers: 2}
	for _, r := range []struct{ trials, lo, hi int }{
		{4 * ChunkSize, 0, 4},
		{ChunkSize, 0, 1},
		{3*ChunkSize + 300, 3, 4},
	} {
		run := func() {
			if _, err := mc.RunKernelChunksCtx(context.Background(), "ztest.kernel.normal", nil, r.trials, r.lo, r.hi); err != nil {
				t.Fatal(err)
			}
		}
		// A collection empties sync.Pools; keep it from landing mid-count.
		gc := debug.SetGCPercent(-1)
		for i := 0; i < 10; i++ {
			run()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall >= 4<<10 {
			t.Errorf("chunks [%d, %d): RunKernelChunksCtx allocates %d B per call on a warm pool, want < 4 KiB", r.lo, r.hi, perCall)
		}
	}
}

// TestTrialGranularityInvariance: for every registered kernel, chunk
// ranges [0,1), [1,3) and [0,3) of a plan with a short tail chunk equal
// the serial NewKernelBatch loop over the same chunk streams bit for
// bit, at any worker count — however the runner splits chunks into
// trial blocks across workers.
func TestTrialGranularityInvariance(t *testing.T) {
	const trials = 2*ChunkSize + 300
	plan := Plan{Seed: 23, Trials: trials}
	for _, name := range Kernels() {
		batch, err := NewKernelBatch(name, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		serial := make([]mathx.Running, plan.Chunks())
		for c := range serial {
			serial[c] = batch(mathx.NewRand(plan.ChunkSeed(c)), plan.ChunkTrials(c))
		}
		for _, workers := range []int{1, 2, 3, 8} {
			mc := MonteCarlo{Seed: plan.Seed, Workers: workers}
			for _, r := range [][2]int{{0, 1}, {1, 3}, {0, 3}} {
				parts, err := mc.RunKernelChunksCtx(context.Background(), name, nil, trials, r[0], r[1])
				if err != nil {
					t.Fatalf("%s, workers=%d, chunks %v: %v", name, workers, r, err)
				}
				for i, p := range parts {
					if c := r[0] + i; p.Snapshot() != serial[c].Snapshot() {
						t.Errorf("%s, workers=%d, chunks %v: chunk %d = %+v, serial %+v",
							name, workers, r, c, p.Snapshot(), serial[c].Snapshot())
					}
				}
			}
		}
	}
}

// TestSingleChunkSplitsAcrossWorkers: a one-chunk range at two workers
// runs two trial blocks of that chunk at once. The first block waits
// for a second one to start, which only the other worker can start.
func TestSingleChunkSplitsAcrossWorkers(t *testing.T) {
	var calls atomic.Int64
	joined := make(chan struct{})
	chunkHook = func() {
		if calls.Add(1) == 2 {
			close(joined)
		}
		select {
		case <-joined:
		case <-time.After(5 * time.Second):
		}
	}
	defer func() { chunkHook = nil }()
	parts, err := MonteCarlo{Seed: 4, Workers: 2}.RunKernelChunksCtx(context.Background(), "ztest.kernel.hook", nil, ChunkSize, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-joined:
	default:
		t.Fatal("no second worker joined the only chunk")
	}
	if parts[0].N() != ChunkSize {
		t.Fatalf("chunk covered %d trials, want %d", parts[0].N(), ChunkSize)
	}
}
