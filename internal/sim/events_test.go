package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	var e Engine
	var got []float64
	for _, tm := range []float64{3, 1, 2, 5, 4} {
		tm := tm
		e.Schedule(tm, func() { got = append(got, tm) })
	}
	if n := e.Run(5); n != 5 {
		t.Fatalf("fired %d events", n)
	}
	if !sort.Float64sAreSorted(got) {
		t.Errorf("events out of order: %v", got)
	}
	if e.Now() != 5 {
		t.Errorf("Now = %v", e.Now())
	}
}

func TestEngineFIFOAtEqualTimes(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1, func() { got = append(got, i) })
	}
	e.Run(1)
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events not FIFO: %v", got)
		}
	}
}

func TestEngineScheduleDuringRun(t *testing.T) {
	var e Engine
	var order []string
	e.Schedule(1, func() {
		order = append(order, "a")
		e.ScheduleAfter(0.5, func() { order = append(order, "b") })
	})
	e.Schedule(2, func() { order = append(order, "c") })
	e.Run(2)
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	var e Engine
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	e.Schedule(2, func() {})
	e.Cancel(ev)
	if !ev.Cancelled() {
		t.Error("event should report cancelled")
	}
	e.Cancel(ev) // double cancel is a no-op
	e.Cancel(nil)
	e.Run(2)
	if fired {
		t.Error("cancelled event fired")
	}
	if e.Now() != 2 {
		t.Errorf("Now = %v", e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	var e Engine
	var got []float64
	for _, tm := range []float64{1, 2, 3, 4} {
		tm := tm
		e.Schedule(tm, func() { got = append(got, tm) })
	}
	if n := e.Run(2.5); n != 2 {
		t.Errorf("fired %d, want 2", n)
	}
	// The rest fire, then the empty queue advances the clock to the
	// horizon.
	if n := e.Run(10); n != 2 {
		t.Errorf("fired %d, want 2", n)
	}
	if e.Now() != 10 {
		t.Errorf("Now = %v, want 10", e.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	var e Engine
	e.Schedule(5, func() {})
	e.Run(5)
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past should panic")
		}
	}()
	e.Schedule(1, func() {})
}

func TestEngineStepEmpty(t *testing.T) {
	var e Engine
	if e.Step() {
		t.Error("Step on empty queue should return false")
	}
}

func TestEngineRandomisedHeapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var e Engine
		var got []float64
		n := 1 + rng.Intn(64)
		events := make([]*Event, 0, n)
		for i := 0; i < n; i++ {
			tm := rng.Float64() * 100
			events = append(events, e.Schedule(tm, func() { got = append(got, tm) }))
		}
		// Cancel a random subset; cancelled events must not fire.
		for _, ev := range events {
			if rng.Intn(4) == 0 {
				e.Cancel(ev)
			}
		}
		e.Run(100)
		return sort.Float64sAreSorted(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
