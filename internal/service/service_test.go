package service

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// blockingRunner returns a runner that signals when it starts and then
// holds its worker until the job context is cancelled or release closes.
func blockingRunner(started chan<- string, release <-chan struct{}) Runner {
	return func(ctx context.Context, req Request) (string, error) {
		select {
		case started <- req.ID:
		default:
		}
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-release:
			return "report:" + req.ID, nil
		}
	}
}

func startService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Stop(ctx); err != nil {
			t.Errorf("Stop: %v", err)
		}
	})
	return s
}

func TestJobLifecycleDone(t *testing.T) {
	var runs atomic.Int64
	s := startService(t, Config{
		Workers: 2,
		Runner: func(ctx context.Context, req Request) (string, error) {
			runs.Add(1)
			return "== " + req.ID + " ==", nil
		},
	})
	jv, err := s.Submit(Request{ID: "fig6a", Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if jv.State != StateQueued || jv.Key == "" {
		t.Fatalf("submitted job = %+v", jv)
	}
	done, err := s.Wait(context.Background(), jv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone || done.CacheHit {
		t.Fatalf("first run = %+v", done)
	}
	if v, ok := s.Result(done.Key); !ok || !strings.Contains(v, "fig6a") {
		t.Errorf("Result(%s) = %q, %v", done.Key, v, ok)
	}

	// The identical request again: served from cache, no second run.
	jv2, err := s.Submit(Request{ID: "fig6a", Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	done2, err := s.Wait(context.Background(), jv2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done2.State != StateDone || !done2.CacheHit {
		t.Fatalf("second run = %+v", done2)
	}
	if done2.Key != done.Key {
		t.Errorf("keys differ: %s vs %s", done.Key, done2.Key)
	}
	if runs.Load() != 1 {
		t.Errorf("runner ran %d times, want 1", runs.Load())
	}
	st := s.Stats()
	if st.Done != 2 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCancelRunningJobReleasesWorker(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	s := startService(t, Config{Workers: 1, Runner: blockingRunner(started, release)})

	jv, err := s.Submit(Request{ID: "slow", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the single worker is now pinned by this job
	if view, _ := s.Job(jv.ID); view.State != StateRunning {
		t.Fatalf("state = %s, want running", view.State)
	}
	if _, err := s.Cancel(jv.ID); err != nil {
		t.Fatal(err)
	}
	done, err := s.Wait(context.Background(), jv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", done.State)
	}
	if _, ok := s.Result(done.Key); ok {
		t.Error("cancelled job left a cached result behind")
	}

	// The freed worker must still serve new jobs: run one to done.
	jv2, err := s.Submit(Request{ID: "fast", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the next job after a cancel")
	}
	release <- struct{}{}
	if done2, err := s.Wait(context.Background(), jv2.ID); err != nil || done2.State != StateDone {
		t.Fatalf("post-cancel job = %+v, %v", done2, err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	s := startService(t, Config{Workers: 1, QueueDepth: 4, Runner: blockingRunner(started, release)})

	if _, err := s.Submit(Request{ID: "pin", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.Submit(Request{ID: "victim", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	view, err := s.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if view.State != StateCanceled {
		t.Fatalf("state = %s, want canceled immediately", view.State)
	}
	// Idempotent on terminal jobs.
	if again, err := s.Cancel(queued.ID); err != nil || again.State != StateCanceled {
		t.Errorf("re-cancel = %+v, %v", again, err)
	}
}

func TestQueueFull(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	s := startService(t, Config{Workers: 1, QueueDepth: 2, Runner: blockingRunner(started, release)})

	if _, err := s.Submit(Request{ID: "pin", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(Request{ID: "queued", Seed: int64(i)}); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if _, err := s.Submit(Request{ID: "overflow", Seed: 9}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if st := s.Stats(); st.Rejected != 1 || st.QueueDepth != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestQueueFullNotCountedAsSubmitted: a queue-full rejection counts as
// rejected only, and leaves nothing in the job table.
func TestQueueFullNotCountedAsSubmitted(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	s := startService(t, Config{Workers: 1, QueueDepth: 1, Runner: blockingRunner(started, release)})

	if _, err := s.Submit(Request{ID: "pin", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.Submit(Request{ID: "queued", Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Request{ID: "overflow", Seed: 3}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if st := s.Stats(); st.Submitted != 2 || st.Rejected != 1 {
		t.Errorf("submitted %d, rejected %d; want 2 and 1", st.Submitted, st.Rejected)
	}
	s.mu.Lock()
	jobs, order := len(s.jobs), len(s.order)
	s.mu.Unlock()
	if jobs != 2 || order != 2 {
		t.Errorf("job table %d, order %d; want 2 each", jobs, order)
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	s := startService(t, Config{
		Workers:  1,
		Runner:   ExperimentRunner,
		KnownIDs: KnownExperimentIDs(),
	})
	if _, err := s.Submit(Request{ID: "fig99", Seed: 1}); !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("err = %v, want ErrUnknownExperiment", err)
	}
	jv, err := s.Submit(Request{ID: "table1", Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	done, err := s.Wait(context.Background(), jv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone {
		t.Fatalf("table1 = %+v", done)
	}
}

func TestConcurrentIdenticalSubmitsSingleFlight(t *testing.T) {
	var runs atomic.Int64
	gate := make(chan struct{})
	s := startService(t, Config{
		Workers: 4,
		Runner: func(ctx context.Context, req Request) (string, error) {
			runs.Add(1)
			<-gate
			return "r", nil
		},
	})
	ids := make([]string, 4)
	for i := range ids {
		jv, err := s.Submit(Request{ID: "same", Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = jv.ID
	}
	// Let all four workers pick the jobs up, then open the gate.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	for _, id := range ids {
		done, err := s.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if done.State != StateDone {
			t.Fatalf("job %s = %+v", id, done)
		}
	}
	if runs.Load() != 1 {
		t.Errorf("runner ran %d times for 4 identical jobs, want 1", runs.Load())
	}
}

func TestStopCancelsQueuedAndRunning(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	s, err := New(Config{Workers: 1, QueueDepth: 4, Runner: blockingRunner(started, release)})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	running, err := s.Submit(Request{ID: "running", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.Submit(Request{ID: "queued", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{running.ID, queued.ID} {
		view, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if view.State != StateCanceled {
			t.Errorf("%s state = %s, want canceled", view.Request.ID, view.State)
		}
	}
	if _, err := s.Submit(Request{ID: "late", Seed: 1}); !errors.Is(err, ErrStopped) {
		t.Errorf("submit after stop: err = %v, want ErrStopped", err)
	}
}

func TestJobTableBounded(t *testing.T) {
	s := startService(t, Config{
		Workers: 2,
		MaxJobs: 8,
		Runner:  func(ctx context.Context, req Request) (string, error) { return "r", nil },
	})
	var last string
	for i := 0; i < 40; i++ {
		jv, err := s.Submit(Request{ID: "x", Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(context.Background(), jv.ID); err != nil {
			t.Fatal(err)
		}
		last = jv.ID
	}
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n > 9 { // MaxJobs plus at most the one in flight
		t.Errorf("job table holds %d entries, bound is 8", n)
	}
	if _, err := s.Job(last); err != nil {
		t.Errorf("latest job was forgotten: %v", err)
	}
}
