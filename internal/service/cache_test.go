package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCanonicalKeyStableAcrossFieldOrder(t *testing.T) {
	a := Request{ID: "fig6a", Seed: 7, Quick: true,
		Params: map[string]string{"solver": "analytic", "samples": "20000"}}
	b := Request{Quick: true, Params: map[string]string{"samples": "20000", "solver": "analytic"},
		Seed: 7, ID: "fig6a"}
	if CanonicalKey(a) != CanonicalKey(b) {
		t.Error("literal field order changed the key")
	}

	// JSON field order must not matter either.
	var c, d Request
	if err := json.Unmarshal([]byte(`{"id":"fig6a","seed":7,"quick":true,"params":{"samples":"20000","solver":"analytic"}}`), &c); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(`{"params":{"solver":"analytic","samples":"20000"},"quick":true,"id":"fig6a","seed":7}`), &d); err != nil {
		t.Fatal(err)
	}
	if CanonicalKey(c) != CanonicalKey(a) || CanonicalKey(c) != CanonicalKey(d) {
		t.Error("JSON field order changed the key")
	}
}

func TestCanonicalKeySeparatesRequests(t *testing.T) {
	base := Request{ID: "fig6a", Seed: 1}
	for name, req := range map[string]Request{
		"different id":    {ID: "fig6b", Seed: 1},
		"different seed":  {ID: "fig6a", Seed: 2},
		"quick flag":      {ID: "fig6a", Seed: 1, Quick: true},
		"solver param":    {ID: "fig6a", Seed: 1, Params: map[string]string{"solver": "mc"}},
		"injection shape": {ID: "fig6a\nquick=true", Seed: 1},
	} {
		if CanonicalKey(req) == CanonicalKey(base) {
			t.Errorf("%s collided with the base key", name)
		}
	}
}

// TestCanonicalKeyPinned pins the content address of one budgeted
// ext-coopber request. The key feeds durable stores and campaign
// results, so it may change only together with keyVersion; the
// unversioned hash of the same request (a55fac3d…, from before the BER
// kernels stopped on the Wilson rule) must never come back.
func TestCanonicalKeyPinned(t *testing.T) {
	req := Request{ID: "ext-coopber", Seed: 1, Quick: true,
		Params: map[string]string{"target_ci": "0.05", "max_trials": "131072"}}
	const want = "8b843193096179ca85cc867390cb7bc61d740604ef115e7b75a703861203138d"
	if got := CanonicalKey(req); got != want {
		t.Fatalf("CanonicalKey = %s, want %s", got, want)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := newCache(16)
	var computations atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	compute := func() (string, error) {
		if computations.Add(1) == 1 {
			close(started)
		}
		<-release
		return "report", nil
	}

	const callers = 8
	results := make([]string, callers)
	hits := make([]bool, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := c.do(context.Background(), Key("k"), compute)
			if err != nil {
				t.Error(err)
			}
			results[i], hits[i] = v, hit
		}(i)
	}
	<-started
	close(release)
	wg.Wait()

	if n := computations.Load(); n != 1 {
		t.Errorf("%d computations for %d identical concurrent requests, want 1", n, callers)
	}
	nHits := 0
	for i := range results {
		if results[i] != "report" {
			t.Errorf("caller %d got %q", i, results[i])
		}
		if hits[i] {
			nHits++
		}
	}
	if nHits != callers-1 {
		t.Errorf("%d callers coalesced, want %d", nHits, callers-1)
	}
}

func TestCacheFailureNotCached(t *testing.T) {
	c := newCache(16)
	boom := errors.New("boom")
	if _, _, err := c.do(context.Background(), Key("k"), func() (string, error) { return "", boom }); err != boom {
		t.Fatalf("err = %v", err)
	}
	if c.len() != 0 {
		t.Fatal("failed computation was cached")
	}
	v, hit, err := c.do(context.Background(), Key("k"), func() (string, error) { return "ok", nil })
	if err != nil || hit || v != "ok" {
		t.Errorf("retry after failure: v=%q hit=%v err=%v", v, hit, err)
	}
	if v, ok := c.get(Key("k")); !ok || v != "ok" {
		t.Error("successful retry not cached")
	}
}

func TestCacheWaiterRecomputesAfterComputerCancelled(t *testing.T) {
	c := newCache(16)
	computing := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup

	// First caller starts computing, then "gets cancelled" (fails).
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.do(context.Background(), Key("k"), func() (string, error) {
			close(computing)
			<-release
			return "", context.Canceled
		})
		if err != context.Canceled {
			t.Errorf("computer err = %v", err)
		}
	}()
	<-computing

	// Second caller waits on the flight, sees it fail, recomputes.
	wg.Add(1)
	var recomputed atomic.Bool
	go func() {
		defer wg.Done()
		v, hit, err := c.do(context.Background(), Key("k"), func() (string, error) {
			recomputed.Store(true)
			return "fresh", nil
		})
		if err != nil || v != "fresh" || hit {
			t.Errorf("waiter got v=%q hit=%v err=%v", v, hit, err)
		}
	}()
	close(release)
	wg.Wait()

	if !recomputed.Load() {
		t.Error("waiter did not recompute after the computer failed")
	}
	if v, ok := c.get(Key("k")); !ok || v != "fresh" {
		t.Error("recomputed value not cached")
	}
}

func TestCacheEvictionBound(t *testing.T) {
	c := newCache(4)
	for i := 0; i < 10; i++ {
		key := Key(fmt.Sprintf("k%d", i))
		if _, _, err := c.do(context.Background(), key, func() (string, error) {
			return fmt.Sprintf("v%d", i), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if c.len() != 4 {
		t.Fatalf("cache holds %d entries, bound is 4", c.len())
	}
	if got := c.stats.evictions.Load(); got != 6 {
		t.Errorf("evictions = %d, want 6", got)
	}
	// Most recent four survive; the oldest are gone.
	for i := 0; i < 6; i++ {
		if _, ok := c.get(Key(fmt.Sprintf("k%d", i))); ok {
			t.Errorf("k%d should have been evicted", i)
		}
	}
	for i := 6; i < 10; i++ {
		if v, ok := c.get(Key(fmt.Sprintf("k%d", i))); !ok || v != fmt.Sprintf("v%d", i) {
			t.Errorf("k%d missing or wrong: %q %v", i, v, ok)
		}
	}
}

func TestCacheLRUTouchOnGet(t *testing.T) {
	c := newCache(2)
	mustDo := func(k, v string) {
		t.Helper()
		if _, _, err := c.do(context.Background(), Key(k), func() (string, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
	}
	mustDo("a", "1")
	mustDo("b", "2")
	c.get(Key("a")) // refresh a; b becomes the eviction candidate
	mustDo("c", "3")
	if _, ok := c.get(Key("b")); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.get(Key("a")); !ok {
		t.Error("recently used a was evicted")
	}
}
