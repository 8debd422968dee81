package tenant

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"
)

// Errors surfaced by Scheduler.Enqueue. Both mean "back off and retry",
// but they name different bounds: ErrQueueFull is the global backlog
// limit shared by everyone, ErrTenantQueueFull is one tenant's own
// queue bound — other tenants can still submit.
var (
	ErrQueueFull       = errors.New("tenant: global job queue is full")
	ErrTenantQueueFull = errors.New("tenant: per-tenant job queue is full")
	ErrClosed          = errors.New("tenant: scheduler closed")
)

// Options sizes a Scheduler. The zero value gives every tenant weight
// 1, a 256-entry per-tenant queue, no global bound and no concurrency
// caps.
type Options struct {
	// DefaultWeight is the weight of tenants absent from Weights;
	// 0 means 1. A weight-2 tenant receives twice the service of a
	// weight-1 tenant while both have queued work.
	DefaultWeight int
	// Weights overrides per-tenant weights.
	Weights map[string]int
	// QueueDepth bounds each tenant's own backlog; 0 means 256.
	QueueDepth int
	// TotalDepth bounds the backlog summed over all tenants;
	// 0 means unbounded.
	TotalDepth int
	// Workers, when positive, enables soft concurrency shares: while
	// several tenants have queued work, a tenant already running at
	// least ceil(Workers·weight/activeWeight) jobs is passed over in
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

// tq is one tenant's FIFO plus its stride-scheduling state.
type tq[T any] struct {
	weight  int
	pass    float64 // virtual time already consumed
	items   []entry[T]
	running int
}

// Scheduler is a weighted-fair multi-queue: Enqueue appends to the
// submitting tenant's FIFO, Dequeue serves tenants in stride order.
// All methods are safe for concurrent use.
type Scheduler[T any] struct {
	opts Options

	mu      sync.Mutex
	tenants map[string]*tq[T]
	queued  int     // total items across tenants
	vtime   float64 // pass of the most recently dispatched tenant
	wake    chan struct{}
	closed  bool
}

// NewScheduler builds a Scheduler from opts.
func NewScheduler[T any](opts Options) *Scheduler[T] {
	if opts.DefaultWeight <= 0 {
		opts.DefaultWeight = 1
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 256
	}
	return &Scheduler[T]{
		opts:    opts,
		tenants: make(map[string]*tq[T]),
		wake:    make(chan struct{}),
	}
}

// Weight reports the configured weight for a tenant id.
func (s *Scheduler[T]) Weight(id string) int {
	if w, ok := s.opts.Weights[id]; ok && w > 0 {
		return w
	}
	return s.opts.DefaultWeight
}

func (s *Scheduler[T]) tenantLocked(id string) *tq[T] {
	q, ok := s.tenants[id]
	if !ok {
		if len(s.tenants) >= maxIdleTenants {
			s.pruneLocked()
		}
		q = &tq[T]{weight: s.Weight(id)}
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

// wakeAllLocked releases every blocked Dequeue so it re-examines the
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
	if s.opts.TotalDepth > 0 && s.queued >= s.opts.TotalDepth {
		return ErrQueueFull
	}
	q := s.tenantLocked(id)
	if len(q.items) >= s.opts.QueueDepth {
		return ErrTenantQueueFull
	}
	if len(q.items) == 0 && q.pass < s.vtime {
		q.pass = s.vtime
	}
	q.items = append(q.items, entry[T]{v: v, at: time.Now()})
	s.queued++
	s.wakeAllLocked()
	return nil
}

// pickLocked dispatches the next item in stride order, or reports
// false when nothing is eligible. Pass 0 honors concurrency shares;
// pass 1 ignores them so capacity is never left idle while work waits.
func (s *Scheduler[T]) pickLocked() (v T, id string, wait time.Duration, ok bool) {
	activeWeight, activeTenants := 0, 0
	for _, q := range s.tenants {
		if len(q.items) > 0 {
			activeWeight += q.weight
			activeTenants++
		}
	}
	if activeTenants == 0 {
		return v, "", 0, false
	}
	overShare := func(q *tq[T]) bool {
		if s.opts.Workers <= 0 || activeTenants <= 1 {
			return false
		}
		share := (s.opts.Workers*q.weight + activeWeight - 1) / activeWeight
		if share < 1 {
			share = 1
		}
		return q.running >= share
	}
	for phase := 0; phase < 2; phase++ {
		var best *tq[T]
		bestID := ""
		for tid, q := range s.tenants {
			if len(q.items) == 0 || (phase == 0 && overShare(q)) {
				continue
			}
			if best == nil || q.pass < best.pass || (q.pass == best.pass && tid < bestID) {
				best, bestID = q, tid
			}
		}
		if best == nil {
			continue
		}
		var e entry[T]
		e, best.items = best.items[0], best.items[1:]
		s.queued--
		s.vtime = best.pass
		best.pass += 1 / float64(best.weight)
		best.running++
		return e.v, bestID, time.Since(e.at), true
	}
	return v, "", 0, false
}

// Dequeue blocks until an item is dispatchable, the scheduler closes,
// or ctx is done. The caller owns the returned item and must call
// Done(id) when finished with it so the tenant's concurrency share is
// released.
func (s *Scheduler[T]) Dequeue(ctx context.Context) (v T, id string, ok bool) {
	v, id, _, ok = s.DequeueTimed(ctx)
	return v, id, ok
}

// DequeueTimed is Dequeue plus the item's scheduling wait: how long it
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
		var best *tq[T]
		bestID := ""
		for tid, q := range s.tenants {
			if len(q.items) == 0 {
				continue
			}
			if best == nil || q.pass < best.pass || (q.pass == best.pass && tid < bestID) {
				best, bestID = q, tid
			}
		}
		if best == nil {
			return out
		}
		var e entry[T]
		e, best.items = best.items[0], best.items[1:]
		s.queued--
		best.pass += 1 / float64(best.weight)
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

// Snapshot is a point-in-time view of one tenant's standing in the
// scheduler, plus the share context needed to price its backlog.
type Snapshot struct {
	ID      string `json:"tenant"`
	Queued  int    `json:"queued"`
	Running int    `json:"running"`
	Weight  int    `json:"weight"`
	// ActiveWeight sums the weights of tenants with queued work (this
	// tenant included when it has any); the tenant's fair share of the
	// pool is Weight/ActiveWeight.
	ActiveWeight int `json:"active_weight"`
}

// Tenant snapshots one tenant. Unknown ids report zero backlog and the
// weight they would be assigned.
func (s *Scheduler[T]) Tenant(id string) Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{ID: id, Weight: s.Weight(id)}
	for tid, q := range s.tenants {
		if len(q.items) > 0 {
			snap.ActiveWeight += q.weight
		}
		if tid == id {
			snap.Queued = len(q.items)
			snap.Running = q.running
			snap.Weight = q.weight
		}
	}
	return snap
}

// Depths reports the per-tenant queued backlog for tenants with any
// queued or running work, sorted by id for stable output.
func (s *Scheduler[T]) Depths() []Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Snapshot, 0, len(s.tenants))
	activeWeight := 0
	for _, q := range s.tenants {
		if len(q.items) > 0 {
			activeWeight += q.weight
		}
	}
	for tid, q := range s.tenants {
		if len(q.items) == 0 && q.running == 0 {
			continue
		}
		out = append(out, Snapshot{
			ID: tid, Queued: len(q.items), Running: q.running,
			Weight: q.weight, ActiveWeight: activeWeight,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
