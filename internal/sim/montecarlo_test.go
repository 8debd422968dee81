package sim

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/mathx"
)

func init() {
	RegisterKernel("ztest.kernel.normal", func(map[string]float64) (BatchFunc, error) {
		return func(rng *rand.Rand, n int) mathx.Running {
			var acc mathx.Running
			for i := 0; i < n; i++ {
				acc.Add(rng.NormFloat64())
			}
			return acc
		}, nil
	})
	// ztest.kernel.coin scores 1 with probability p (default 0.3).
	RegisterKernel("ztest.kernel.coin", func(params map[string]float64) (BatchFunc, error) {
		p, ok := params["p"]
		if !ok {
			p = 0.3
		}
		return func(rng *rand.Rand, n int) mathx.Running {
			var acc mathx.Running
			for i := 0; i < n; i++ {
				if rng.Float64() < p {
					acc.Add(1)
				} else {
					acc.Add(0)
				}
			}
			return acc
		}, nil
	})
	// ztest.kernel.hook calls chunkHook (when set) before every chunk,
	// letting tests act at chunk boundaries, e.g. cancel mid-run.
	RegisterKernel("ztest.kernel.hook", func(map[string]float64) (BatchFunc, error) {
		return func(rng *rand.Rand, n int) mathx.Running {
			if chunkHook != nil {
				chunkHook()
			}
			return uniformBatch(rng, n)
		}, nil
	})
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

// TestRunBatches: every batch call covers exactly one chunk — ChunkSize
// trials, the last one the short remainder — so a kernel's batch sees
// chunk-sized n no matter how many workers run.
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

// TestRunKernelChunksReusesGenerators: chunk generators come from a
// pool, so once it is warm a call allocates far less than one ~4.9 KB
// generator state, however many workers it starts. Adaptive runs call
// the pool once per doubling round, which is what makes this matter.
func TestRunKernelChunksReusesGenerators(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Put items at random")
	}
	const calls = 50
	mc := MonteCarlo{Seed: 5, Workers: 2}
	run := func() {
		if _, err := mc.RunKernelChunksCtx(context.Background(), "ztest.kernel.normal", nil, 4*ChunkSize, 0, 4); err != nil {
			t.Fatal(err)
		}
	}
	// A collection empties sync.Pools; keep it from landing mid-count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 10; i++ {
		run()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall >= 4<<10 {
		t.Errorf("RunKernelChunksCtx allocates %d B per call on a warm pool, want < 4 KiB", perCall)
	}
}
