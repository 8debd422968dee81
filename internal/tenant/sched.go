package tenant

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"
)

// Errors surfaced by Scheduler.Enqueue. ErrQueueFull means "back off
// and retry": the backlog shared by every tenant is at its bound.
var (
	ErrQueueFull = errors.New("tenant: global job queue is full")
	ErrClosed    = errors.New("tenant: scheduler closed")
)

// Options sizes a Scheduler. The zero value leaves the backlog
// unbounded and sets no concurrency caps.
type Options struct {
	// Depth bounds the backlog summed over all tenants; 0 means
	// unbounded. A lone tenant may fill it: the fair rotation, not a
	// per-tenant bound, keeps tenants from starving each other.
	Depth int
	// Workers, when positive, enables soft concurrency shares: while
	// several tenants have queued work, a tenant already running at
	// least ceil(Workers/activeTenants) jobs is passed over in
	// favor of tenants under their share. The cap is work-conserving —
	// it lifts when no under-share tenant has work.
	Workers int
}

// maxIdleTenants bounds the tenant table: once it grows beyond this,
// enqueues prune tenants with no queued or running work. A pruned
// tenant that returns is indistinguishable from a new one (its pass
// restarts at the current virtual time), so pruning never changes
// scheduling order among active tenants.
const maxIdleTenants = 4096

// entry wraps a queued item with its enqueue time, so dispatch can
// report how long the item sat in the fair queue (the scheduling
// component of queue wait, as opposed to waiting for a worker).
type entry[T any] struct {
	v  T
	at time.Time
}

// tq is one tenant's FIFO plus its round-robin state.
type tq[T any] struct {
	pass    int // dispatches charged, counted from the virtual time it joined at
	items   []entry[T]
	running int
}

// Scheduler is a fair multi-queue: Enqueue appends to the submitting
// tenant's FIFO, DequeueTimed serves the tenant that has been served least.
// All methods are safe for concurrent use.
type Scheduler[T any] struct {
	opts Options

	mu      sync.Mutex
	tenants map[string]*tq[T]
	queued  int // total items across tenants
	vtime   int // pass of the most recently dispatched tenant
	wake    chan struct{}
	closed  bool
}

// NewScheduler builds a Scheduler from opts.
func NewScheduler[T any](opts Options) *Scheduler[T] {
	return &Scheduler[T]{
		opts:    opts,
		tenants: make(map[string]*tq[T]),
		wake:    make(chan struct{}),
	}
}

func (s *Scheduler[T]) tenantLocked(id string) *tq[T] {
	q, ok := s.tenants[id]
	if !ok {
		if len(s.tenants) >= maxIdleTenants {
			s.pruneLocked()
		}
		q = &tq[T]{}
		s.tenants[id] = q
	}
	return q
}

func (s *Scheduler[T]) pruneLocked() {
	for id, q := range s.tenants {
		if len(q.items) == 0 && q.running == 0 {
			delete(s.tenants, id)
		}
	}
}

// wakeAllLocked releases every blocked DequeueTimed so it re-examines the
// queues (close-and-replace broadcast).
func (s *Scheduler[T]) wakeAllLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// Enqueue appends v to tenant id's queue. A tenant returning from idle
// starts at the current virtual time, so it cannot bank credit while
// away and then monopolize the workers.
func (s *Scheduler[T]) Enqueue(id string, v T) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.opts.Depth > 0 && s.queued >= s.opts.Depth {
		return ErrQueueFull
	}
	q := s.tenantLocked(id)
	if len(q.items) == 0 && q.pass < s.vtime {
		q.pass = s.vtime
	}
	q.items = append(q.items, entry[T]{v: v, at: time.Now()})
	s.queued++
	s.wakeAllLocked()
	return nil
}

// pickLocked dispatches the next item in pass order, or reports
// false when nothing is eligible. Phase 0 honors concurrency shares;
// phase 1 ignores them so capacity is never left idle while work waits.
func (s *Scheduler[T]) pickLocked() (v T, id string, wait time.Duration, ok bool) {
	active := s.backloggedLocked()
	if active == 0 {
		return v, "", 0, false
	}
	share := max(1, (s.opts.Workers+active-1)/active)
	overShare := func(q *tq[T]) bool {
		return s.opts.Workers > 0 && active > 1 && q.running >= share
	}
	for phase := 0; phase < 2; phase++ {
		best, bestID := s.nextLocked(func(q *tq[T]) bool { return phase == 0 && overShare(q) })
		if best == nil {
			continue
		}
		var e entry[T]
		e, best.items = best.items[0], best.items[1:]
		s.queued--
		s.vtime = best.pass
		best.pass++
		best.running++
		return e.v, bestID, time.Since(e.at), true
	}
	return v, "", 0, false
}

// nextLocked returns the backlogged tenant with the smallest pass that
// skip does not pass over, ties going to the smaller id, or nil.
func (s *Scheduler[T]) nextLocked(skip func(*tq[T]) bool) (best *tq[T], bestID string) {
	for tid, q := range s.tenants {
		if len(q.items) == 0 || skip(q) {
			continue
		}
		if best == nil || q.pass < best.pass || (q.pass == best.pass && tid < bestID) {
			best, bestID = q, tid
		}
	}
	return best, bestID
}

// DequeueTimed blocks until an item is dispatchable, the scheduler
// closes, or ctx is done. The caller owns the returned item and must
// call Done(id) when finished with it so the tenant's concurrency share
// is released. It also returns the item's scheduling wait: how long it
// sat in the fair queue between Enqueue and this dispatch. The wait
// isolates the scheduler's contribution to end-to-end queue latency —
// a heavy tenant over its share accrues scheduling wait even while
// workers sit idle for others.
func (s *Scheduler[T]) DequeueTimed(ctx context.Context) (v T, id string, wait time.Duration, ok bool) {
	for {
		s.mu.Lock()
		if v, id, wait, ok = s.pickLocked(); ok {
			s.mu.Unlock()
			return v, id, wait, true
		}
		if s.closed {
			s.mu.Unlock()
			return v, "", 0, false
		}
		wake := s.wake
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return v, "", 0, false
		case <-wake:
		}
	}
}

// Done releases one unit of tenant id's concurrency share.
func (s *Scheduler[T]) Done(id string) {
	s.mu.Lock()
	if q, ok := s.tenants[id]; ok && q.running > 0 {
		q.running--
	}
	s.wakeAllLocked()
	s.mu.Unlock()
}

// Remove takes the first queued item of tenant id that match accepts
// out of the queue and reports whether there was one. The item was
// never dispatched, so the tenant's pass and running count stay as
// they are; its backlog, the total and Active drop at once.
func (s *Scheduler[T]) Remove(id string, match func(T) bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.tenants[id]
	if !ok {
		return false
	}
	for i, e := range q.items {
		if match(e.v) {
			q.items = append(q.items[:i], q.items[i+1:]...)
			s.queued--
			return true
		}
	}
	return false
}

// Close stops the scheduler: blocked Dequeues return false and further
// Enqueues fail with ErrClosed. Queued items remain for Drain.
func (s *Scheduler[T]) Close() {
	s.mu.Lock()
	s.closed = true
	s.wakeAllLocked()
	s.mu.Unlock()
}

// Drain removes and returns every queued item in fair dispatch order,
// ignoring concurrency shares. Used at shutdown to fail queued work
// deterministically.
func (s *Scheduler[T]) Drain() []T {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []T
	for {
		best, _ := s.nextLocked(func(*tq[T]) bool { return false })
		if best == nil {
			return out
		}
		var e entry[T]
		e, best.items = best.items[0], best.items[1:]
		s.queued--
		best.pass++
		out = append(out, e.v)
	}
}

// Len reports the total queued items across all tenants.
func (s *Scheduler[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// Active reports how many tenants currently have queued or running
// work.
func (s *Scheduler[T]) Active() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, q := range s.tenants {
		if len(q.items) > 0 || q.running > 0 {
			n++
		}
	}
	return n
}

// backloggedLocked counts the tenants with queued work.
func (s *Scheduler[T]) backloggedLocked() int {
	n := 0
	for _, q := range s.tenants {
		if len(q.items) > 0 {
			n++
		}
	}
	return n
}

// Snapshot is a point-in-time view of one tenant's standing in the
// scheduler, plus how many tenants share the pool.
type Snapshot struct {
	ID      string `json:"tenant"`
	Queued  int    `json:"queued"`
	Running int    `json:"running"`
	// Backlogged counts the tenants with queued work (this tenant
	// included when it has any); the tenant's fair share of the pool is
	// 1/Backlogged.
	Backlogged int `json:"backlogged_tenants"`
}

// Depths reports the per-tenant queued backlog for tenants with any
// queued or running work, sorted by id for stable output.
func (s *Scheduler[T]) Depths() []Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Snapshot, 0, len(s.tenants))
	backlogged := s.backloggedLocked()
	for tid, q := range s.tenants {
		if len(q.items) == 0 && q.running == 0 {
			continue
		}
		out = append(out, Snapshot{ID: tid, Queued: len(q.items), Running: q.running, Backlogged: backlogged})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
