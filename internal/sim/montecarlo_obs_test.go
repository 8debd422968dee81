package sim

import (
	"context"
	"strconv"
	"sync"
	"testing"

	"repro/internal/obs"
)

// recordingSink captures every progress report so the test can check
// the cumulative done count is monotonic and lands exactly on total.
type recordingSink struct {
	mu     sync.Mutex
	total  int64
	deltas []int64
}

func (r *recordingSink) AddTotal(n int64) {
	r.mu.Lock()
	r.total += n
	r.mu.Unlock()
}

func (r *recordingSink) Add(n int64) {
	r.mu.Lock()
	r.deltas = append(r.deltas, n)
	r.mu.Unlock()
}

func TestMonteCarloReportsProgress(t *testing.T) {
	const trials = 3*ChunkSize + 123 // force a short tail chunk
	sink := &recordingSink{}
	ctx := obs.WithProgress(context.Background(), sink)

	mc := MonteCarlo{Seed: 42, Workers: 3}
	if _, err := mc.RunKernelCtx(ctx, "ztest.kernel.adapt", nil, trials); err != nil {
		t.Fatal(err)
	}

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if sink.total != trials {
		t.Fatalf("AddTotal sum = %d, want %d", sink.total, trials)
	}
	var done int64
	for i, d := range sink.deltas {
		if d <= 0 {
			t.Fatalf("delta %d = %d; progress must be monotonic", i, d)
		}
		done += d
	}
	if done != trials {
		t.Fatalf("completed trials = %d, want %d", done, trials)
	}
	if len(sink.deltas) != 4 {
		t.Errorf("chunk reports = %d, want 4", len(sink.deltas))
	}
}

func TestMonteCarloProgressViaTracker(t *testing.T) {
	tr := obs.NewTracker()
	ctx := obs.WithProgress(context.Background(), tr)
	mc := MonteCarlo{Seed: 7}
	want := runKernel(t, mc, "ztest.kernel.adapt", 5000)
	got, err := mc.RunKernelCtx(ctx, "ztest.kernel.adapt", nil, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("progress instrumentation changed the statistics")
	}
	s := tr.Snapshot()
	if s.Done != 5000 || s.Total != 5000 {
		t.Fatalf("tracker = %+v, want 5000/5000", s)
	}
}

func TestMonteCarloCanceledProgressStaysPartial(t *testing.T) {
	tr := obs.NewTracker()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = obs.WithProgress(ctx, tr)
	chunkHook = cancel
	defer func() { chunkHook = nil }()
	trials := 10 * ChunkSize
	_, err := MonteCarlo{Seed: 1, Workers: 1}.RunKernelCtx(ctx, "ztest.kernel.hook", nil, trials)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	s := tr.Snapshot()
	if s.Total != int64(trials) {
		t.Fatalf("total = %d, want %d", s.Total, trials)
	}
	if s.Done >= s.Total {
		t.Fatalf("cancelled run reported done=%d >= total=%d", s.Done, s.Total)
	}
}

// TestMonteCarloChunkSpans: with a recorder attached, every chunk is
// timed as one mc.chunk span carrying its chunk index, parented to the
// caller's span.
func TestMonteCarloChunkSpans(t *testing.T) {
	rec := obs.NewTraceRecorder(4, 64)
	ctx, root := obs.StartSpan(obs.WithRecorder(context.Background(), rec), "test.root")
	if _, err := (MonteCarlo{Seed: 5, Workers: 2}).RunKernelCtx(ctx, "ztest.kernel.adapt", nil, 3*ChunkSize+1); err != nil {
		t.Fatal(err)
	}
	root.End()
	seen := map[string]bool{}
	for _, sd := range rec.Spans(root.TraceID()) {
		if sd.Name != "mc.chunk" {
			continue
		}
		if sd.ParentID != root.SpanID() {
			t.Errorf("mc.chunk parent %q, want %q", sd.ParentID, root.SpanID())
		}
		seen[sd.Attr("chunk")] = true
	}
	for c := 0; c < 4; c++ {
		if !seen[strconv.Itoa(c)] {
			t.Errorf("no mc.chunk span for chunk %d (saw %v)", c, seen)
		}
	}
	if len(seen) != 4 {
		t.Errorf("mc.chunk spans cover chunks %v, want 0-3", seen)
	}
}
