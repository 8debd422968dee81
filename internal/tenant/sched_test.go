package tenant

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// drainOrder dequeues everything currently queued (never blocking on
// an empty scheduler) and returns the tenant dispatch order.
func drainOrder(t *testing.T, s *Scheduler[int]) []string {
	t.Helper()
	var order []string
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		_, id, _, ok := s.DequeueTimed(ctx)
		cancel()
		if !ok {
			return order
		}
		order = append(order, id)
		s.Done(id)
	}
}

// TestStrideInterleavesTenants pins the anti-starvation property: a
// tenant with a huge backlog and a tenant with one job alternate until
// the small tenant drains, instead of the big backlog going first.
func TestStrideInterleavesTenants(t *testing.T) {
	s := NewScheduler[int](Options{})
	for i := 0; i < 10; i++ {
		if err := s.Enqueue("heavy", i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := s.Enqueue("light", 100+i); err != nil {
			t.Fatal(err)
		}
	}
	order := drainOrder(t, s)
	if len(order) != 12 {
		t.Fatalf("drained %d items, want 12", len(order))
	}
	// Both light jobs must be served within the first few dispatches:
	// stride alternates equal-weight tenants 1:1, so the second light
	// job can be at position 4 at the latest (allowing for the initial
	// tie-break going either way).
	lightDone := 0
	for i, id := range order {
		if id == "light" {
			lightDone++
		}
		if lightDone == 2 {
			if i > 3 {
				t.Fatalf("light tenant's 2nd job served at position %d of %v", i, order)
			}
			break
		}
	}
	if lightDone != 2 {
		t.Fatalf("light jobs served %d times in %v", lightDone, order)
	}
}

// TestReturningTenantCannotBankCredit: a tenant that sat idle while
// another consumed service re-enters at the current virtual time — it
// does not get a catch-up monopoly.
func TestReturningTenantCannotBankCredit(t *testing.T) {
	s := NewScheduler[int](Options{})
	for i := 0; i < 8; i++ {
		if err := s.Enqueue("busy", i); err != nil {
			t.Fatal(err)
		}
	}
	// Serve four jobs while "idler" is away.
	for i := 0; i < 4; i++ {
		_, id, _, ok := s.DequeueTimed(context.Background())
		if !ok || id != "busy" {
			t.Fatalf("dispatch %d = %q, %t", i, id, ok)
		}
		s.Done(id)
	}
	// Idler shows up with a backlog; service must alternate from here,
	// not hand idler four make-up dispatches in a row.
	for i := 0; i < 4; i++ {
		if err := s.Enqueue("idler", 100+i); err != nil {
			t.Fatal(err)
		}
	}
	first4 := map[string]int{}
	for i := 0; i < 4; i++ {
		_, id, _, ok := s.DequeueTimed(context.Background())
		if !ok {
			t.Fatal("empty early")
		}
		first4[id]++
		s.Done(id)
	}
	if first4["idler"] > 2 {
		t.Fatalf("returning tenant got %d of the first 4 dispatches: %v", first4["idler"], first4)
	}
}

// TestQueueBounds: the one bound caps the backlog summed over all
// tenants. A lone tenant may fill it, every tenant is then refused, and
// a dispatch frees a slot.
func TestQueueBounds(t *testing.T) {
	s := NewScheduler[int](Options{Depth: 3})
	for i := 1; i <= 3; i++ {
		if err := s.Enqueue("a", i); err != nil {
			t.Fatalf("lone tenant refused below the bound: %v", err)
		}
	}
	if err := s.Enqueue("b", 1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow by another tenant: err = %v, want ErrQueueFull", err)
	}
	if _, _, _, ok := s.DequeueTimed(context.Background()); !ok {
		t.Fatal("Dequeue failed")
	}
	if err := s.Enqueue("b", 1); err != nil {
		t.Fatalf("tenant b refused after a dispatch freed a slot: %v", err)
	}
	if err := s.Enqueue("a", 4); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow by the filling tenant: err = %v, want ErrQueueFull", err)
	}
}

// TestConcurrencyShares: with 2 workers and 2 active tenants, one
// tenant cannot hold both workers while the other has queued work —
// unless it is the only tenant with work (work conservation).
func TestConcurrencyShares(t *testing.T) {
	s := NewScheduler[int](Options{Workers: 2})
	for i := 0; i < 4; i++ {
		if err := s.Enqueue("hog", i); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Enqueue("meek", 100); err != nil {
		t.Fatal(err)
	}
	_, id1, _, _ := s.DequeueTimed(context.Background())
	_, id2, _, _ := s.DequeueTimed(context.Background())
	got := map[string]int{id1: 1}
	got[id2]++
	if got["hog"] != 1 || got["meek"] != 1 {
		t.Fatalf("first two dispatches = %v, want one each", got)
	}
	// meek's job still "running"; hog may exceed its share only because
	// nobody else has queued work now (work conservation).
	_, id3, _, ok := s.DequeueTimed(context.Background())
	if !ok || id3 != "hog" {
		t.Fatalf("third dispatch = %q, %t; want hog via work conservation", id3, ok)
	}
	// With meek queued again and hog at 2 running ≥ its share of 1,
	// the next dispatch must be meek.
	if err := s.Enqueue("meek", 101); err != nil {
		t.Fatal(err)
	}
	_, id4, _, ok := s.DequeueTimed(context.Background())
	if !ok || id4 != "meek" {
		t.Fatalf("dispatch with hog over share = %q, %t; want meek", id4, ok)
	}
}

func TestDequeueBlocksUntilEnqueue(t *testing.T) {
	s := NewScheduler[string](Options{})
	got := make(chan string, 1)
	go func() {
		v, _, _, ok := s.DequeueTimed(context.Background())
		if ok {
			got <- v
		}
	}()
	time.Sleep(10 * time.Millisecond)
	if err := s.Enqueue("t", "payload"); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != "payload" {
			t.Fatalf("dequeued %q", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Dequeue never woke after Enqueue")
	}
}

func TestCloseAndDrain(t *testing.T) {
	s := NewScheduler[int](Options{})
	for i := 0; i < 3; i++ {
		if err := s.Enqueue(fmt.Sprintf("t%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if err := s.Enqueue("t0", 9); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close err = %v", err)
	}
	if _, _, _, ok := s.DequeueTimed(context.Background()); ok {
		// Items remain after Close, but pickLocked still dispatches
		// them; Drain is for the shutdown path that wants them failed.
		// A dispatch here is acceptable — put it back conceptually by
		// just checking Drain gets the rest.
		t.Log("dequeue after close dispatched a queued item")
	}
	rest := s.Drain()
	if got := len(rest) + 1; got != 3 && len(rest) != 3 {
		t.Fatalf("drain returned %d items", len(rest))
	}
	if s.Len() != 0 {
		t.Fatalf("len after drain = %d", s.Len())
	}
}

func TestSnapshotsAndActive(t *testing.T) {
	s := NewScheduler[int](Options{})
	if got := s.Active(); got != 0 {
		t.Fatalf("active on empty = %d", got)
	}
	for i := 0; i < 3; i++ {
		if err := s.Enqueue("w2", i); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Enqueue("w1", 0); err != nil {
		t.Fatal(err)
	}
	if got := s.Active(); got != 2 {
		t.Fatalf("active = %d, want 2", got)
	}
	depths := s.Depths()
	if len(depths) != 2 || depths[0].ID != "w1" || depths[1].ID != "w2" {
		t.Fatalf("depths = %+v", depths)
	}
	if snap := depths[1]; snap.Queued != 3 || snap.Backlogged != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// One dispatched job moves queued -> running but stays active.
	_, id, _, _ := s.DequeueTimed(context.Background())
	if got := s.Active(); got != 2 {
		t.Fatalf("active after dispatch = %d, want 2", got)
	}
	depths = s.Depths()
	if i := slices.IndexFunc(depths, func(d Snapshot) bool { return d.ID == id }); i < 0 || depths[i].Running != 1 {
		t.Fatalf("depths after dispatching from %s = %+v, want it running 1", id, depths)
	}
}

// TestSchedulerConcurrentUse hammers the scheduler from many producers
// and consumers under the race detector.
func TestSchedulerConcurrentUse(t *testing.T) {
	s := NewScheduler[int](Options{Workers: 4, Depth: 10000})
	const producers, perProducer = 8, 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			id := fmt.Sprintf("t%d", p)
			for i := 0; i < perProducer; i++ {
				if err := s.Enqueue(id, i); err != nil {
					t.Errorf("enqueue: %v", err)
					return
				}
			}
		}(p)
	}
	var consumed sync.WaitGroup
	total := producers * perProducer
	counts := make(chan string, total)
	for c := 0; c < 4; c++ {
		consumed.Add(1)
		go func() {
			defer consumed.Done()
			for {
				_, id, _, ok := s.DequeueTimed(context.Background())
				if !ok {
					return
				}
				counts <- id
				s.Done(id)
			}
		}()
	}
	wg.Wait()
	// Wait for the backlog to drain, then close so consumers exit.
	deadline := time.Now().Add(10 * time.Second)
	for s.Len() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("backlog stuck at %d", s.Len())
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	consumed.Wait()
	close(counts)
	perTenant := map[string]int{}
	for id := range counts {
		perTenant[id]++
	}
	for p := 0; p < producers; p++ {
		if got := perTenant[fmt.Sprintf("t%d", p)]; got != perProducer {
			t.Errorf("tenant t%d served %d jobs, want %d", p, got, perProducer)
		}
	}
}

// TestDequeueTimedReportsSchedulingWait checks the wait is measured
// from Enqueue to dispatch and carried per item, not per tenant.
func TestDequeueTimedReportsSchedulingWait(t *testing.T) {
	s := NewScheduler[int](Options{})
	if err := s.Enqueue("a", 1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := s.Enqueue("a", 2); err != nil {
		t.Fatal(err)
	}

	v, id, wait, ok := s.DequeueTimed(context.Background())
	if !ok || v != 1 || id != "a" {
		t.Fatalf("first dequeue = (%d, %s, %v)", v, id, ok)
	}
	if wait < 20*time.Millisecond {
		t.Fatalf("first item waited %v, want >= 20ms", wait)
	}
	s.Done(id)

	v, _, wait2, ok := s.DequeueTimed(context.Background())
	if !ok || v != 2 {
		t.Fatalf("second dequeue = (%d, %v)", v, ok)
	}
	if wait2 >= wait {
		t.Fatalf("younger item reported longer wait (%v >= %v)", wait2, wait)
	}
	s.Done("a")
}

// TestDequeueTimedZeroOnFailure pins the failure signature: cancelled
// or closed dequeues report zero wait and ok=false.
func TestDequeueTimedZeroOnFailure(t *testing.T) {
	s := NewScheduler[int](Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, _, wait, ok := s.DequeueTimed(ctx); ok || wait != 0 {
		t.Fatalf("cancelled dequeue = (wait %v, ok %v)", wait, ok)
	}
	s.Close()
	if _, _, _, ok := s.DequeueTimed(context.Background()); ok {
		t.Fatal("closed scheduler dequeued")
	}
}

// TestRemoveTakesQueuedItem: Remove takes one queued item out of its
// tenant's FIFO, leaving the rest in order and the counts consistent;
// an unknown tenant or an absent item reports false.
func TestRemoveTakesQueuedItem(t *testing.T) {
	s := NewScheduler[int](Options{Depth: 3})
	for i := 1; i <= 3; i++ {
		if err := s.Enqueue("a", i); err != nil {
			t.Fatal(err)
		}
	}
	if s.Remove("b", func(int) bool { return true }) || s.Remove("a", func(v int) bool { return v == 9 }) {
		t.Fatal("Remove reported an item that is not queued")
	}
	if !s.Remove("a", func(v int) bool { return v == 2 }) {
		t.Fatal("Remove missed a queued item")
	}
	if got := s.Len(); got != 2 {
		t.Fatalf("Len after Remove = %d, want 2", got)
	}
	if err := s.Enqueue("a", 4); err != nil {
		t.Fatalf("queue at its bound before Remove: %v", err)
	}
	var got []int
	for range 3 {
		v, id, _, ok := s.DequeueTimed(context.Background())
		if !ok {
			t.Fatal("Dequeue failed")
		}
		got = append(got, v)
		s.Done(id)
	}
	if fmt.Sprint(got) != "[1 3 4]" {
		t.Fatalf("dispatch order after Remove = %v, want [1 3 4]", got)
	}
	if s.Remove("a", func(int) bool { return true }) || s.Len() != 0 || s.Active() != 0 {
		t.Fatalf("drained scheduler: Len %d, Active %d", s.Len(), s.Active())
	}
}

// TestRemoveConcurrentWithDequeue: with producers, consumers and a
// remover racing, every item leaves the scheduler exactly once, either
// dispatched or removed.
func TestRemoveConcurrentWithDequeue(t *testing.T) {
	s := NewScheduler[int](Options{Workers: 2, Depth: 10000})
	const producers, perProducer = 4, 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := s.Enqueue(fmt.Sprintf("t%d", p), p*perProducer+i); err != nil {
					t.Errorf("enqueue: %v", err)
					return
				}
			}
		}(p)
	}
	removed := make(chan int, producers*perProducer)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 1; v < producers*perProducer; v += 2 {
			if s.Remove(fmt.Sprintf("t%d", v/perProducer), func(x int) bool { return x == v }) {
				removed <- v
			}
		}
	}()
	dispatched := make(chan int, producers*perProducer)
	var consumed sync.WaitGroup
	for c := 0; c < 2; c++ {
		consumed.Add(1)
		go func() {
			defer consumed.Done()
			for {
				v, id, _, ok := s.DequeueTimed(context.Background())
				if !ok {
					return
				}
				dispatched <- v
				s.Done(id)
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for s.Len() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("backlog stuck at %d", s.Len())
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	consumed.Wait()
	close(removed)
	close(dispatched)
	seen := make(map[int]int)
	for v := range removed {
		seen[v]++
	}
	for v := range dispatched {
		seen[v]++
	}
	for v := 0; v < producers*perProducer; v++ {
		if seen[v] != 1 {
			t.Fatalf("item %d left the scheduler %d times, want once", v, seen[v])
		}
	}
}
