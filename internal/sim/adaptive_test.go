package sim

import (
	"context"
	"encoding/json"
	"math"
	"sort"
	"testing"

	"repro/internal/mathx"
	"repro/internal/obs"
)

func init() { RegisterKernel("ztest.kernel.adapt", Kernel{Build: testBatch}) }

// stopAfterTrials stops once the prefix holds at least n trials — a
// deterministic rule for pinning round behavior in tests.
type stopAfterTrials struct{ n int64 }

func (s stopAfterTrials) Done(prefix mathx.Running) bool { return prefix.N() >= s.n }

// neverStop exhausts the budget.
type neverStop struct{}

func (neverStop) Done(mathx.Running) bool { return false }

func TestAdaptiveRoundSchedule(t *testing.T) {
	for _, tc := range []struct{ prev, chunks, want int }{
		{0, 10, 1},
		{1, 10, 2},
		{2, 10, 4},
		{4, 10, 8},
		{8, 10, 10}, // capped at the budget
		{0, 1, 1},
	} {
		if got := adaptiveRound(tc.prev, tc.chunks); got != tc.want {
			t.Errorf("adaptiveRound(%d, %d) = %d, want %d", tc.prev, tc.chunks, got, tc.want)
		}
	}
}

// TestRunAdaptivePrefixIdentity is the core determinism contract: the
// statistics of an adaptive run are bit-identical to a fixed run of the
// realized chunk prefix, because the executed chunks and the fold order
// are exactly that prefix of the budget's plan.
func TestRunAdaptivePrefixIdentity(t *testing.T) {
	mc := MonteCarlo{Seed: 42}
	budget := 10 * ChunkSize

	res, err := mc.RunAdaptiveCtx(context.Background(), "ztest.kernel.adapt", nil,
		budget, stopAfterTrials{n: 3 * ChunkSize})
	if err != nil {
		t.Fatal(err)
	}
	// Rounds 1, 2, 4: the rule fires at the 4-chunk boundary.
	if got := res.Trace.Chunks(); got != 4 {
		t.Fatalf("realized chunks = %d, want 4 (rounds %v)", got, res.Trace.Rounds)
	}
	if !res.Trace.Stopped {
		t.Fatal("trace not marked stopped")
	}
	if res.Trace.Trials != 4*ChunkSize {
		t.Fatalf("realized trials = %d, want %d", res.Trace.Trials, 4*ChunkSize)
	}
	if err := res.Trace.Validate(); err != nil {
		t.Fatalf("recorded trace fails validation: %v", err)
	}

	// A fixed run of the same prefix: same chunks of the same plan,
	// folded left to right.
	parts, err := mc.RunKernelChunksCtx(context.Background(), "ztest.kernel.adapt", nil, budget, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	var want mathx.Running
	for _, p := range parts {
		want.Merge(p)
	}
	if res.Stats.Snapshot() != want.Snapshot() {
		t.Fatalf("adaptive stats %+v != fixed prefix stats %+v", res.Stats.Snapshot(), want.Snapshot())
	}
}

// TestRunAdaptiveExhaustsBudget checks the degenerate path: a rule that
// never fires spends the whole budget and matches the plain fixed run
// bit for bit — adaptive wrapping costs nothing in accuracy.
func TestRunAdaptiveExhaustsBudget(t *testing.T) {
	mc := MonteCarlo{Seed: 7}
	trials := 3*ChunkSize + 17 // partial final chunk

	res, err := mc.RunAdaptiveCtx(context.Background(), "ztest.kernel.adapt", nil, trials, neverStop{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Stopped {
		t.Fatal("trace marked stopped; rule never fired")
	}
	if res.Trace.Trials != trials || res.Trace.Saved() != 0 {
		t.Fatalf("realized %d of %d trials, saved %d", res.Trace.Trials, trials, res.Trace.Saved())
	}
	want, err := mc.RunKernelCtx(context.Background(), "ztest.kernel.adapt", nil, trials)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Snapshot() != want.Snapshot() {
		t.Fatalf("exhausted adaptive run %+v != fixed run %+v", res.Stats.Snapshot(), want.Snapshot())
	}
	// Nil rule takes the same degenerate path.
	res2, err := mc.RunAdaptiveCtx(context.Background(), "ztest.kernel.adapt", nil, trials, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Snapshot() != want.Snapshot() {
		t.Fatal("nil-rule adaptive run differs from fixed run")
	}
}

// TestRunTraceReplayIdentity: replaying a recorded trace reproduces the
// adaptive run's statistics bit-identically, serial and parallel alike.
func TestRunTraceReplayIdentity(t *testing.T) {
	mc := MonteCarlo{Seed: 99}
	res, err := mc.RunAdaptiveCtx(context.Background(), "ztest.kernel.adapt", nil,
		8*ChunkSize, stopAfterTrials{n: 2 * ChunkSize})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 3} {
		replayer := MonteCarlo{Seed: 99, Workers: workers}
		rep, err := replayer.RunTraceCtx(context.Background(), "ztest.kernel.adapt", nil, res.Trace)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Stats.Snapshot() != res.Stats.Snapshot() {
			t.Fatalf("workers=%d: replay %+v != original %+v", workers, rep.Stats.Snapshot(), res.Stats.Snapshot())
		}
	}
}

// TestRunAdaptiveParallelIdentity: worker count never changes what an
// adaptive run computes, including where it stops.
func TestRunAdaptiveParallelIdentity(t *testing.T) {
	base, err := MonteCarlo{Seed: 5}.RunAdaptiveCtx(context.Background(),
		"ztest.kernel.adapt", nil, 16*ChunkSize, stopAfterTrials{n: 5 * ChunkSize})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7} {
		got, err := MonteCarlo{Seed: 5, Workers: workers}.RunAdaptiveCtx(context.Background(),
			"ztest.kernel.adapt", nil, 16*ChunkSize, stopAfterTrials{n: 5 * ChunkSize})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Stats.Snapshot() != base.Stats.Snapshot() || got.Trace.Trials != base.Trace.Trials {
			t.Fatalf("workers=%d: adaptive run diverged", workers)
		}
	}
}

// TestRunAdaptiveProgressShrinks: the run advertises the full budget up
// front and shrinks the total to the realized spend at stop, keeping
// done <= total at the end.
func TestRunAdaptiveProgressShrinks(t *testing.T) {
	tracker := obs.NewTracker()
	ctx := obs.WithProgress(context.Background(), tracker)
	res, err := MonteCarlo{Seed: 1}.RunAdaptiveCtx(ctx, "ztest.kernel.adapt", nil,
		32*ChunkSize, stopAfterTrials{n: 2 * ChunkSize})
	if err != nil {
		t.Fatal(err)
	}
	snap := tracker.Snapshot()
	if snap.Total != int64(res.Trace.Trials) {
		t.Fatalf("final total %d, want realized trials %d", snap.Total, res.Trace.Trials)
	}
	if snap.Done != snap.Total {
		t.Fatalf("done %d != total %d after completed run", snap.Done, snap.Total)
	}
	if res.Trace.Saved() == 0 {
		t.Fatal("test run saved nothing; stopping rule never fired")
	}
}

func TestRunAdaptiveErrors(t *testing.T) {
	mc := MonteCarlo{Seed: 1}
	if _, err := mc.RunAdaptiveCtx(context.Background(), "ztest.kernel.adapt", nil, 0, nil); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := mc.RunAdaptiveCtx(context.Background(), "ztest.kernel.nope", nil, ChunkSize, nil); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestPlanTraceValidate(t *testing.T) {
	valid := PlanTrace{ChunkSize: ChunkSize, MaxTrials: 4 * ChunkSize, Trials: 2 * ChunkSize, Rounds: []int{1, 2}}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	for name, tr := range map[string]PlanTrace{
		"wrong chunk size":  {ChunkSize: ChunkSize + 1, MaxTrials: ChunkSize, Trials: ChunkSize, Rounds: []int{1}},
		"no rounds":         {ChunkSize: ChunkSize, MaxTrials: ChunkSize, Trials: ChunkSize},
		"zero budget":       {ChunkSize: ChunkSize, MaxTrials: 0, Trials: 0, Rounds: []int{1}},
		"non-monotonic":     {ChunkSize: ChunkSize, MaxTrials: 4 * ChunkSize, Trials: 2 * ChunkSize, Rounds: []int{2, 1}},
		"beyond budget":     {ChunkSize: ChunkSize, MaxTrials: 2 * ChunkSize, Trials: 2 * ChunkSize, Rounds: []int{1, 5}},
		"trials mismatch":   {ChunkSize: ChunkSize, MaxTrials: 4 * ChunkSize, Trials: ChunkSize, Rounds: []int{1, 2}},
		"overflowed trials": {ChunkSize: ChunkSize, MaxTrials: math.MaxInt, Trials: math.MinInt, Rounds: []int{math.MaxInt/ChunkSize + 1}},
	} {
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: trace accepted", name)
		}
	}
}

// FuzzPlanTraceValidate pins the Validate contract at a trust
// boundary: traces arrive inside results and campaign checkpoints, so
// for any JSON-decoded trace Validate must not panic, and every trace
// it accepts must replay through RunTraceCtx to exactly trace.Trials
// trials — the statistics of the traced chunk prefix, round by round.
// Accepted traces longer than 16 chunks are not replayed, to keep each
// input cheap; their validation still runs.
func FuzzPlanTraceValidate(f *testing.F) {
	for _, seed := range []string{
		`{"chunk_size":2048,"max_trials":8192,"trials":4096,"stopped":true,"rounds":[1,2]}`,
		`{"chunk_size":2048,"max_trials":3000,"trials":3000,"stopped":false,"rounds":[1,2]}`,
		`{"chunk_size":2048,"max_trials":9223372036854775807,"trials":2048,"rounds":[1]}`,
		`{"chunk_size":2048,"max_trials":9223372036854773760,"trials":2048,"rounds":[1]}`,
		// A trace with the strata field older binaries declared: the
		// field is ignored, the rest must still validate on its own.
		`{"chunk_size":2048,"max_trials":4096,"trials":4096,"rounds":[2],"strata":[{"name":"a","chunks":2}]}`,
		`{"chunk_size":2048,"max_trials":4096,"trials":4096,"rounds":[2,1]}`,
		`{"chunk_size":2048,"max_trials":-1,"trials":0,"rounds":[0]}`,
		`{"rounds":null}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr PlanTrace
		if json.Unmarshal(data, &tr) != nil || tr.Validate() != nil || tr.Chunks() > 16 {
			return
		}
		mc := MonteCarlo{Seed: 9, Workers: 2}
		res, err := mc.RunTraceCtx(context.Background(), "ztest.kernel.adapt", nil, tr)
		if err != nil {
			t.Fatalf("accepted trace %+v does not replay: %v", tr, err)
		}
		if res.Stats.N() != int64(tr.Trials) {
			t.Fatalf("trace %+v replayed %d trials, want %d", tr, res.Stats.N(), tr.Trials)
		}
		parts, err := mc.RunKernelChunksCtx(context.Background(), "ztest.kernel.adapt", nil, tr.MaxTrials, 0, tr.Chunks())
		if err != nil {
			t.Fatal(err)
		}
		var want mathx.Running
		for _, p := range parts {
			want.Merge(p)
		}
		if res.Stats != want {
			t.Fatalf("trace %+v replayed %+v, its chunk prefix folds to %+v", tr, res.Stats, want)
		}
	})
}

// TestKernelCapsRegistry: a registration stores one entry under its
// physics name and every alias, and only the physics name is listed.
func TestKernelCapsRegistry(t *testing.T) {
	units := func(map[string]float64) float64 { return 8 }
	RegisterKernel("ztest.kernel.caps", Kernel{Build: testBatch, BernoulliUnits: units,
		Aliases: []string{"ztest.kernel.caps.legacy"}})
	for _, name := range []string{"ztest.kernel.caps", "ztest.kernel.caps.legacy"} {
		k, ok := LookupKernel(name)
		if !ok || k.BernoulliUnits == nil || k.BernoulliUnits(nil) != 8 {
			t.Fatalf("%s: entry not stored: %+v ok=%v", name, k, ok)
		}
	}
	if _, ok := LookupKernel("ztest.kernel.caps.nope"); ok {
		t.Fatal("entry reported for unknown kernel")
	}
	names := Kernels()
	if i := sort.SearchStrings(names, "ztest.kernel.caps"); i == len(names) || names[i] != "ztest.kernel.caps" {
		t.Fatalf("Kernels() = %v missing the physics name", names)
	}
	if i := sort.SearchStrings(names, "ztest.kernel.caps.legacy"); i < len(names) && names[i] == "ztest.kernel.caps.legacy" {
		t.Fatalf("Kernels() = %v lists an alias", names)
	}
	mc := MonteCarlo{Seed: 5, Workers: 2}
	a := runKernel(t, mc, "ztest.kernel.caps", 3*ChunkSize/2)
	if b := runKernel(t, mc, "ztest.kernel.caps.legacy", 3*ChunkSize/2); a != b {
		t.Fatalf("alias run %+v differs from the physics run %+v", b, a)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an alias colliding with a registered name did not panic")
		}
	}()
	RegisterKernel("ztest.kernel.caps.other", Kernel{Build: testBatch, Aliases: []string{"ztest.kernel.caps"}})
}
