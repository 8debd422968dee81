// Package sim provides the two execution substrates every experiment in
// the repository runs on:
//
//   - a discrete-event engine (Engine) with a binary-heap event queue and
//     a simulated clock, which drives the primary-user activity of the
//     cognitive cycle; and
//   - a parallel Monte-Carlo runner (MonteCarlo) that fans trials out over
//     a worker pool with independent, deterministically derived PRNG
//     streams and merges the results in a fixed order, so a run is
//     reproducible regardless of GOMAXPROCS.
package sim

import (
	"container/heap"
	"fmt"
)

// Event is a scheduled callback. Fire runs at the event's simulated time.
type Event struct {
	Time float64
	Fire func()

	seq   uint64 // tie-breaker: FIFO among equal times
	index int    // heap bookkeeping; -1 once popped or cancelled
}

// Cancelled reports whether the event has been removed from the queue.
func (e *Event) Cancelled() bool { return e.index == -2 }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].Time != h[j].Time {
		return h[i].Time < h[j].Time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event simulator. The zero value is
// ready to use at time 0.
type Engine struct {
	queue eventHeap
	now   float64
	seq   uint64
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule queues fire at absolute simulated time t and returns a handle
// that can be cancelled. Scheduling in the past panics: that is always a
// protocol-logic bug, never a recoverable condition.
func (e *Engine) Schedule(t float64, fire func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %g before now %g", t, e.now))
	}
	ev := &Event{Time: t, Fire: fire, seq: e.seq}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// ScheduleAfter queues fire delay seconds from now.
func (e *Engine) ScheduleAfter(delay float64, fire func()) *Event {
	return e.Schedule(e.now+delay, fire)
}

// Cancel removes ev from the queue if it is still pending.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	heap.Remove(&e.queue, ev.index)
	ev.index = -2
}

// Step fires the earliest pending event and returns true, or returns
// false if the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*Event)
	e.now = ev.Time
	ev.Fire()
	return true
}

// Run fires events until the queue drains or until the clock would pass
// until (exclusive). It returns the number of events fired.
func (e *Engine) Run(until float64) uint64 {
	fired := uint64(0)
	for len(e.queue) > 0 && e.queue[0].Time <= until {
		e.Step()
		fired++
	}
	if e.now < until && len(e.queue) == 0 {
		e.now = until
	}
	return fired
}
