package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestEachRunsEveryIndexOnce: every index runs exactly once, on a
// goroutine id inside the resolved pool, at any worker count.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7} {
		for _, workers := range []int{0, 1, 2, 3, n + 5} {
			pool := workers
			if pool == 0 {
				pool = runtime.GOMAXPROCS(0)
			}
			pool = min(pool, n)
			runs := make([]atomic.Int32, n)
			err := Each(context.Background(), workers, n, func(w, i int) error {
				if w < 0 || w >= pool {
					return fmt.Errorf("w = %d outside [0, %d)", w, pool)
				}
				runs[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, got)
				}
			}
		}
	}
}

// TestEachReportsLowestFailure: a high index that fails first does not
// mask a lower index that fails later; Each returns the lower error, the
// one a serial loop would have stopped at, and claims nothing after it.
func TestEachReportsLowestFailure(t *testing.T) {
	highFailed := make(chan struct{})
	errLow, errHigh := errors.New("low"), errors.New("high")
	err := Each(context.Background(), 2, 2, func(_, i int) error {
		if i == 1 {
			close(highFailed)
			return errHigh
		}
		<-highFailed
		return errLow
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("Each = %v, want the index-0 error", err)
	}
	var ran atomic.Int32
	err = Each(context.Background(), 1, 10, func(_, i int) error {
		ran.Add(1)
		if i == 2 {
			return errHigh
		}
		return nil
	})
	if !errors.Is(err, errHigh) || ran.Load() != 3 {
		t.Fatalf("Each = %v after %d calls, want the index-2 error after 3", err, ran.Load())
	}
}

// TestEachStopsOnCancel: once ctx is done no new index is claimed, and
// Each reports ctx.Err() rather than any call's error.
func TestEachStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := Each(ctx, 1, 100, func(_, i int) error {
		ran.Add(1)
		if i == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Each = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 4 {
		t.Fatalf("ran %d calls after cancelling at index 3, want 4", got)
	}
}

// TestEachKeepsFinishedLoop: a cancel that lands during the last index
// leaves nothing unclaimed, so Each reports the loop's own outcome and
// the caller keeps the finished results.
func TestEachKeepsFinishedLoop(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := Each(ctx, 1, 4, func(_, i int) error {
		if i == 3 {
			cancel()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Each = %v after every index ran, want nil", err)
	}
}
