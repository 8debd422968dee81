package cluster

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// TestCellfreeDistributedMatchesSerialGolden extends the distribution
// witness to the cell-free scenario kernels: ext-cellfree sharded over
// three loopback workers, with one worker killed mid-run, renders
// byte-identically to the serial golden snapshot, and every row keeps
// MMSE combining's spectral efficiency at or above MR's. Unlike
// ext-coopber's scalar trials, each cellfree trial is a full network
// snapshot ending in an L*N-dimensional batched Cholesky solve, so this
// pins that the heavy mathx path is as reassignment-proof as the light
// one.
func TestCellfreeDistributedMatchesSerialGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "experiments", "testdata", "golden", "ext-cellfree_quick_seed1.txt"))
	if err != nil {
		t.Fatalf("golden snapshot missing (run go run ./internal/tools/goldengen): %v", err)
	}

	lb := NewLoopback("a", "b", "c")
	lb.Node("a").SetDelay(time.Millisecond) // widen the mid-run kill window
	reg := NewRegistry(lb, "a", "b", "c")
	co := NewCoordinator(lb, reg, Config{})

	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(3 * time.Millisecond)
		lb.Node("a").Kill()
	}()

	okBefore := metShards.With("ok").Value()

	ctx := sim.WithExecutor(context.Background(), co)
	rep, err := experiments.RunCtx(ctx, "ext-cellfree", experiments.Options{Seed: 1, Quick: true, Workers: 2})
	if err != nil {
		t.Fatalf("distributed ext-cellfree: %v", err)
	}
	<-killed

	if got := rep.String(); got != string(want) {
		t.Errorf("distributed report drifted from serial golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// Both columns of a row run from the same seed, so centralized MMSE
	// combining beats MR at every quantile exactly, not statistically.
	// Columns are [L N K quantile, MR SE, MR ci95, MMSE SE, MMSE ci95].
	for _, row := range rep.Rows {
		mr, err1 := strconv.ParseFloat(row[4], 64)
		mmse, err2 := strconv.ParseFloat(row[6], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparseable SE cells in row %v", row)
		}
		if !(mr > 0) || mmse < mr {
			t.Errorf("quantile %s: want MMSE SE %v >= MR SE %v > 0", row[3], mmse, mr)
		}
	}
	if b, c := lb.Node("b").Shards(), lb.Node("c").Shards(); b == 0 || c == 0 {
		t.Errorf("surviving workers did not both compute shards (b=%d c=%d)", b, c)
	}
	if metShards.With("ok").Value() == okBefore {
		t.Error("no shard completed through the coordinator")
	}
}
