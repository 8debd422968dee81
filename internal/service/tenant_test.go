package service

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tenant"
)

// TestTenantCanonicalizedAndVisible: tenant ids flow from the request
// into the job snapshot, and the anonymous default applies.
func TestTenantCanonicalizedAndVisible(t *testing.T) {
	s := startService(t, Config{
		Workers: 1,
		Runner: func(ctx context.Context, req Request) (string, error) {
			return "ok", nil
		},
	})
	jv, err := s.Submit(Request{ID: "anon", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if jv.Tenant != tenant.DefaultID || jv.Request.Tenant != tenant.DefaultID {
		t.Fatalf("anonymous submit tenant = %q / %q", jv.Tenant, jv.Request.Tenant)
	}
	jv, err = s.Submit(Request{ID: "named", Seed: 1, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if jv.Tenant != "acme" {
		t.Fatalf("tenant = %q", jv.Tenant)
	}
	if _, err := s.Submit(Request{ID: "bad", Seed: 1, Tenant: "no spaces"}); !errors.Is(err, ErrBadTenant) {
		t.Fatalf("invalid tenant err = %v", err)
	}
}

// TestTenantExcludedFromCacheKey: two tenants asking the same question
// share one computation and one cached answer.
func TestTenantExcludedFromCacheKey(t *testing.T) {
	a := CanonicalKey(Request{ID: "fig6a", Seed: 7, Tenant: "alice"})
	b := CanonicalKey(Request{ID: "fig6a", Seed: 7, Tenant: "bob"})
	if a != b {
		t.Fatalf("tenant leaked into cache key: %s != %s", a, b)
	}
}

// TestQuotaRejection pins the admission-control contract: an exhausted
// bucket returns a *QuotaError matching ErrQuotaExceeded, with a
// usable per-tenant RetryAfter, while other tenants stay admitted.
func TestQuotaRejection(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	defer close(release)
	s := startService(t, Config{
		Workers: 1,
		Runner:  blockingRunner(started, release),
		Quota:   tenant.Quota{Rate: 0.001, Burst: 2},
	})
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(Request{ID: "fig6a", Seed: int64(i), Tenant: "greedy"}); err != nil {
			t.Fatalf("burst submit %d: %v", i, err)
		}
	}
	_, err := s.Submit(Request{ID: "fig6a", Seed: 99, Tenant: "greedy"})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota err = %v", err)
	}
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("err %T is not *QuotaError", err)
	}
	if qe.Tenant != "greedy" || qe.RetryAfter <= 0 {
		t.Fatalf("quota error = %+v", qe)
	}
	if _, err := s.Submit(Request{ID: "fig6a", Seed: 1, Tenant: "modest"}); err != nil {
		t.Fatalf("bystander tenant rejected: %v", err)
	}
	if got := s.Stats().QuotaRejected; got != 1 {
		t.Fatalf("stats quota rejected = %d", got)
	}
}

// TestSchedulerFairnessAcrossTenants: with one worker, a heavy tenant's
// backlog cannot starve a light tenant — the light tenant's lone job
// runs within the first few dispatches, not after the whole backlog.
func TestSchedulerFairnessAcrossTenants(t *testing.T) {
	started := make(chan string, 32)
	release := make(chan struct{}, 32)
	s := startService(t, Config{
		Workers:    1,
		QueueDepth: 32,
		Runner:     blockingRunner(started, release),
	})
	// Stall the worker on a sacrificial job so the backlog builds up
	// before any scheduling decisions are made.
	if _, err := s.Submit(Request{ID: "stall", Seed: 0, Tenant: "heavy"}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("stall job never started")
	}
	for i := 1; i <= 10; i++ {
		if _, err := s.Submit(Request{ID: "hv", Seed: int64(i), Tenant: "heavy"}); err != nil {
			t.Fatal(err)
		}
	}
	light, err := s.Submit(Request{ID: "lt", Seed: 1, Tenant: "light"})
	if err != nil {
		t.Fatal(err)
	}
	// Release jobs one at a time and record the dispatch order.
	lightPos := -1
	for i := 0; i < 12; i++ {
		release <- struct{}{}
		select {
		case id := <-started:
			if id == "lt" {
				lightPos = i
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("worker idle after %d releases", i)
		}
		if lightPos >= 0 {
			break
		}
	}
	// Dispatch 0 is the job started while light was not yet queued; the
	// light job must be among the first couple of real scheduling picks.
	if lightPos < 0 || lightPos > 2 {
		t.Fatalf("light tenant's job dispatched at position %d", lightPos)
	}
	for i := 0; i < 12; i++ { // let the rest drain for clean shutdown
		select {
		case release <- struct{}{}:
		default:
		}
	}
	if _, err := s.Wait(context.Background(), light.ID); err != nil {
		t.Fatal(err)
	}
}

// TestCancelQueuedJobLeavesQueue: a cancelled queued job no longer
// counts toward the queue depth or its tenant's backlog, so a full
// queue admits a new job once one is cancelled.
func TestCancelQueuedJobLeavesQueue(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	s := startService(t, Config{
		Workers:    1,
		QueueDepth: 1,
		Runner:     blockingRunner(started, release),
	})
	if _, err := s.Submit(Request{ID: "pin", Seed: 1, Tenant: "a"}); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.Submit(Request{ID: "victim", Seed: 1, Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Request{ID: "over", Seed: 2, Tenant: "a"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue at its bound: err = %v, want ErrQueueFull", err)
	}
	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.QueueDepth != 0 {
		t.Errorf("queue depth after cancelling the only queued job = %d, want 0", st.QueueDepth)
	}
	if got := s.Tenants(); len(got) != 1 || got[0].ID != "a" || got[0].Queued != 0 {
		t.Errorf("tenants after the cancel = %+v, want a alone with no backlog", got)
	}
	if _, err := s.Submit(Request{ID: "after", Seed: 3, Tenant: "a"}); err != nil {
		t.Fatalf("tenant a after cancelling its queued job: %v", err)
	}
}

// TestWatchStreamsMonotonicProgressToCompletion pins the SSE data
// source: snapshots arrive without polling, progress counts only up,
// and the channel closes right after a terminal snapshot.
func TestWatchStreamsMonotonicProgressToCompletion(t *testing.T) {
	const steps = 5
	gate := make(chan struct{}, steps)
	s := startService(t, Config{
		Workers: 1,
		Runner: func(ctx context.Context, req Request) (string, error) {
			p := obs.ProgressFrom(ctx)
			p.AddTotal(steps)
			for i := 0; i < steps; i++ {
				select {
				case <-gate:
				case <-ctx.Done():
					return "", ctx.Err()
				}
				p.Add(1)
			}
			return "done", nil
		},
	})
	jv, err := s.Submit(Request{ID: "fig6a", Seed: 1, Tenant: "watcher"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ch, err := s.Watch(ctx, jv.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < steps; i++ {
			gate <- struct{}{}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	var last JobView
	var prevDone int64 = -1
	snapshots := 0
	for v := range ch {
		snapshots++
		if v.ID != jv.ID || v.Tenant != "watcher" {
			t.Fatalf("snapshot for wrong job: %+v", v)
		}
		if v.Progress != nil {
			if v.Progress.DoneTrials < prevDone {
				t.Fatalf("progress went backwards: %d after %d", v.Progress.DoneTrials, prevDone)
			}
			prevDone = v.Progress.DoneTrials
		}
		last = v
	}
	if !last.State.Terminal() || last.State != StateDone {
		t.Fatalf("final snapshot state = %q after %d snapshots", last.State, snapshots)
	}
	if last.Progress == nil || last.Progress.DoneTrials != steps {
		t.Fatalf("final progress = %+v", last.Progress)
	}
	if snapshots < 2 {
		t.Fatalf("watch produced %d snapshots, want initial + updates", snapshots)
	}
	if _, err := s.Watch(ctx, "j99999999", 0); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("watch unknown job err = %v", err)
	}
}

// TestWatchThrottleStillDeliversTerminal: a large minInterval must not
// delay the terminal snapshot.
func TestWatchThrottleStillDeliversTerminal(t *testing.T) {
	s := startService(t, Config{
		Workers: 1,
		Runner: func(ctx context.Context, req Request) (string, error) {
			p := obs.ProgressFrom(ctx)
			p.AddTotal(100)
			for i := 0; i < 100; i++ {
				p.Add(1)
			}
			return "ok", nil
		},
	})
	jv, err := s.Submit(Request{ID: "fig6a", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ch, err := s.Watch(ctx, jv.ID, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	var last JobView
	for v := range ch {
		last = v
	}
	if last.State != StateDone {
		t.Fatalf("terminal snapshot not delivered under throttle: %+v", last)
	}
}

// TestWatchWatcherCancelDetaches: an abandoned watcher exits without
// affecting the job.
func TestWatchWatcherCancelDetaches(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	s := startService(t, Config{Workers: 1, Runner: blockingRunner(started, release)})
	jv, err := s.Submit(Request{ID: "fig6a", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch, err := s.Watch(ctx, jv.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-ch // initial snapshot
	cancel()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, open := <-ch:
			if !open {
				goto closed
			}
		case <-deadline:
			t.Fatal("watch channel never closed after watcher cancel")
		}
	}
closed:
	close(release)
	if jv, err := s.Wait(context.Background(), jv.ID); err != nil || jv.State != StateDone {
		t.Fatalf("job after watcher detach = %+v, %v", jv, err)
	}
}

// TestStatsTenantCounters: busy workers and active tenants surface in
// Stats while work is in flight.
func TestStatsTenantCounters(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	defer close(release)
	s := startService(t, Config{Workers: 2, Runner: blockingRunner(started, release)})
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(Request{ID: "fig6a", Seed: int64(i), Tenant: fmt.Sprintf("t%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("jobs never started")
		}
	}
	st := s.Stats()
	if st.BusyWorkers != 2 || st.ActiveTenants != 2 {
		t.Fatalf("stats = busy %d active %d, want 2/2", st.BusyWorkers, st.ActiveTenants)
	}
	if len(s.Tenants()) != 2 {
		t.Fatalf("tenants = %+v", s.Tenants())
	}
}
