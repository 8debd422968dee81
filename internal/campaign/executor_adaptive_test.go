package campaign

import (
	"context"
	"os"
	"strings"
	"testing"

	"repro/internal/mathx"
	"repro/internal/sim"
	"repro/internal/store"

	_ "repro/internal/simkern" // register coop.ber
)

// ckptStop stops at a fixed prefix length so checkpoint tests are
// statistically noise-free.
type ckptStop struct{ n int64 }

func (s ckptStop) Done(prefix mathx.Running) bool { return prefix.N() >= s.n }

func newTestExecutor(t *testing.T, every int) (*ckptExecutor, *runCounters) {
	t.Helper()
	st, err := store.Open(store.Options{Dir: t.TempDir(), Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	counters := &runCounters{}
	return &ckptExecutor{store: st, cid: "ctest", expIdx: 0, every: every, workers: 1, stats: counters}, counters
}

// The adaptive witness run: coop.ber under an 8-chunk budget that
// ckptStop ends after the round reaching 3 chunks, i.e. at 4 chunks.
var (
	adaptiveKernel = "coop.ber"
	adaptiveParams = map[string]float64{"mt": 2, "mr": 2, "snr_db": 6, "bits": 16}
	adaptiveBudget = 8 * sim.ChunkSize
	adaptiveStop   = ckptStop{n: 3 * sim.ChunkSize}
)

const adaptiveSeed = 21

// TestAdaptiveRunResumesFromCheckpoint: an adaptive run under the
// campaign executor checkpoints its chunks, and a second pass over the
// same store re-decides the budget from the checkpointed prefix: it
// serves every chunk from the checkpoint, recomputes nothing and
// returns the same statistics.
func TestAdaptiveRunResumesFromCheckpoint(t *testing.T) {
	ex, counters := newTestExecutor(t, 2)
	mc := sim.MonteCarlo{Seed: adaptiveSeed}
	ctx := sim.WithExecutor(context.Background(), ex)
	res, err := mc.RunAdaptiveCtx(ctx, adaptiveKernel, adaptiveParams, adaptiveBudget, adaptiveStop)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Trace.Stopped {
		t.Fatalf("trace %+v not stopped; test wants a mid-budget stop", res.Trace)
	}
	if counters.chunksComputed.Load() != int64(res.Trace.Chunks()) {
		t.Fatalf("computed %d chunks, trace covers %d", counters.chunksComputed.Load(), res.Trace.Chunks())
	}

	ex2 := &ckptExecutor{store: ex.store, cid: "ctest", expIdx: 0, every: 2, workers: 1, stats: &runCounters{}}
	ctx2 := sim.WithExecutor(context.Background(), ex2)
	res2, err := mc.RunAdaptiveCtx(ctx2, adaptiveKernel, adaptiveParams, adaptiveBudget, adaptiveStop)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Snapshot() != res.Stats.Snapshot() {
		t.Fatalf("resumed adaptive run %+v != original %+v", res2.Stats.Snapshot(), res.Stats.Snapshot())
	}
	if got := ex2.stats.chunksComputed.Load(); got != 0 {
		t.Fatalf("resume recomputed %d chunks, want 0", got)
	}
	if got := ex2.stats.chunksResumed.Load(); got != int64(res.Trace.Chunks()) {
		t.Fatalf("resume credited %d chunks, want %d", got, res.Trace.Chunks())
	}
}

// TestAdaptiveResumesCheckpointWithTraceField: checkpoints written
// before the plan trace left the checkpoint record carry a "trace"
// field. The fixture is such a checkpoint of the witness run; it still
// decodes, and the run resumes from it with 0 chunks recomputed and
// statistics equal to a fresh local run.
func TestAdaptiveResumesCheckpointWithTraceField(t *testing.T) {
	payload, err := os.ReadFile("testdata/adaptive-checkpoint-v1-trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(payload), `"trace":`) {
		t.Fatal("fixture lost its trace field")
	}
	ex, counters := newTestExecutor(t, 2)
	run := sim.KernelRun{Kernel: adaptiveKernel, Params: adaptiveParams, Seed: adaptiveSeed, Trials: adaptiveBudget}
	if err := ex.store.Put(ckptPrefix("ctest", 0)+runHash(run), payload, store.Meta{Kind: "checkpoint"}); err != nil {
		t.Fatal(err)
	}

	mc := sim.MonteCarlo{Seed: adaptiveSeed}
	want, err := mc.RunAdaptiveCtx(context.Background(), adaptiveKernel, adaptiveParams, adaptiveBudget, adaptiveStop)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mc.RunAdaptiveCtx(sim.WithExecutor(context.Background(), ex), adaptiveKernel, adaptiveParams, adaptiveBudget, adaptiveStop)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Snapshot() != want.Stats.Snapshot() {
		t.Fatalf("resumed from fixture %+v != fresh run %+v", got.Stats.Snapshot(), want.Stats.Snapshot())
	}
	if n := counters.chunksComputed.Load(); n != 0 {
		t.Fatalf("resume from fixture recomputed %d chunks, want 0", n)
	}
	if n := counters.chunksResumed.Load(); n != int64(want.Trace.Chunks()) {
		t.Fatalf("resume from fixture credited %d chunks, want %d", n, want.Trace.Chunks())
	}
}

// TestCkptRunChunkRangeValidates: the range entry point refuses ranges
// outside the run's plan.
func TestCkptRunChunkRangeValidates(t *testing.T) {
	ex, _ := newTestExecutor(t, 4)
	run := sim.KernelRun{Kernel: "coop.ber", Params: map[string]float64{"bits": 16}, Seed: 1, Trials: 2 * sim.ChunkSize}
	ctx := context.Background()
	for _, r := range [][2]int{{-1, 1}, {0, 3}, {1, 1}} {
		if _, err := ex.RunChunkRange(ctx, run, r[0], r[1]); err == nil {
			t.Errorf("range %v accepted", r)
		}
	}
	parts, err := ex.RunChunkRange(ctx, run, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 {
		t.Fatalf("got %d partials, want 2", len(parts))
	}
}
