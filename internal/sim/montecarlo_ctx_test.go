package sim

import (
	"context"
	"sync/atomic"
	"testing"
)

func TestRunBatchesCtxCancellationStopsEarly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const chunks = 64
	var calls atomic.Int64
	chunkHook = func() {
		if calls.Add(1) == 3 {
			cancel()
		}
	}
	defer func() { chunkHook = nil }()
	_, err := MonteCarlo{Seed: 1, Workers: 2}.RunKernelCtx(ctx, "ztest.kernel.hook", nil, chunks*ChunkSize)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation after the third chunk must stop the fan-out well
	// short of the full run: at most one extra in-flight chunk per
	// worker can slip through.
	if got := calls.Load(); got >= chunks {
		t.Errorf("ran %d chunks of %d despite cancellation", got, chunks)
	}
}

func TestRunCountCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	chunkHook = func() { calls.Add(1) }
	defer func() { chunkHook = nil }()
	r, err := MonteCarlo{Seed: 1}.RunKernelCtx(ctx, "ztest.kernel.hook", nil, 10*ChunkSize)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r.N() != 0 || calls.Load() != 0 {
		t.Errorf("pre-cancelled run did work: N=%d chunks=%d", r.N(), calls.Load())
	}
}
