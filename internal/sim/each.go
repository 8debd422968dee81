package sim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls fn(w, i) once for every index i in [0, n) on
// min(workers, n) goroutines, workers 0 meaning GOMAXPROCS. w in
// [0, min(workers, n)) names the goroutine making the call, so callers
// can keep per-goroutine scratch indexed by it; the calling goroutine
// serves as w = 0, so one worker starts no goroutine. Indices are
// claimed in increasing order, and claiming stops once ctx is done or a
// call has failed.
//
// Each returns ctx.Err() when ctx is done with an index left
// unclaimed, and otherwise the error of the lowest failing index. Every
// lower index was claimed before it and so ran to completion, which
// makes that the error a serial loop would have stopped at. A loop
// whose every index ran reports its own outcome even if ctx is done by
// the time it returns.
func Each(ctx context.Context, workers, n int, fn func(w, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	var next atomic.Int64
	var failed atomic.Bool
	var mu sync.Mutex
	lowest, lowErr := n, error(nil)
	loop := func(w int) {
		for ctx.Err() == nil && !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := fn(w, i); err != nil {
				mu.Lock()
				if i < lowest {
					lowest, lowErr = i, err
				}
				mu.Unlock()
				failed.Store(true)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(w)
		}()
	}
	loop(0)
	wg.Wait()
	if err := ctx.Err(); err != nil && next.Load() < int64(n) {
		return err
	}
	return lowErr
}
