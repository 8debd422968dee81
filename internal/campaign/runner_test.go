package campaign

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Logger: discardLogger()})
	if err != nil {
		t.Fatalf("opening store: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// kernelSpec is the resume witness: one raw kernel entry spanning
// exactly trials/ChunkSize chunks, checkpointing after every chunk.
func kernelSpec(trials int) Spec {
	return Spec{
		Name:             "resume-witness",
		CheckpointChunks: 1,
		Experiments: []Experiment{{
			Kernel: "coop.ber",
			Seed:   7,
			KernelParams: map[string]float64{
				"mt": 2, "mr": 2, "snr_db": 8, "bits": 16,
			},
			Trials: trials,
		}},
	}
}

// trackerObserver hands the test the first experiment's progress
// tracker so it can cancel the run at a chosen amount of work.
type trackerObserver struct{ ch chan *obs.Tracker }

func (o *trackerObserver) ExperimentStarted(i int, name string, tr *obs.Tracker) {
	select {
	case o.ch <- tr:
	default:
	}
}
func (o *trackerObserver) ExperimentFinished(int, string, bool, error) {}

// TestInterruptResumeByteIdentical is the in-process half of the crash
// contract: cancel a kernel campaign after at least two chunks, resume
// it with a different worker budget, and demand the exact bytes an
// uninterrupted run produces. The SIGKILL half lives in crash_test.go.
func TestInterruptResumeByteIdentical(t *testing.T) {
	const chunks = 12
	spec := kernelSpec(chunks * sim.ChunkSize)

	golden, goldenStats, err := (&Runner{
		Store: openStore(t, t.TempDir()), Workers: 2, Logger: discardLogger(),
	}).Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	if goldenStats.ChunksComputed != chunks || goldenStats.ChunksResumed != 0 {
		t.Fatalf("golden stats = %+v, want %d computed, 0 resumed", goldenStats, chunks)
	}

	st := openStore(t, t.TempDir())
	watch := &trackerObserver{ch: make(chan *obs.Tracker, 1)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		tr := <-watch.ch
		// Two completed chunks guarantee the first chunk's checkpoint is
		// durable: the runner persists a range's checkpoint before the
		// next range starts computing.
		for tr.Snapshot().Done < 2*sim.ChunkSize {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	if _, _, err := (&Runner{
		Store: st, Workers: 2, Logger: discardLogger(), Observer: watch,
	}).Run(ctx, spec); err == nil {
		t.Fatal("interrupted run reported success")
	}
	if len(st.EntriesByKind("checkpoint")) == 0 {
		t.Fatal("no checkpoint persisted before the interruption")
	}
	payload, _, ok := st.Get(stateKey(spec.ID()))
	if !ok {
		t.Fatal("interrupted campaign has no durable state record")
	}
	var rec stateRecord
	if err := json.Unmarshal(payload, &rec); err != nil || rec.Status != "running" {
		t.Fatalf("interrupted campaign state = %q (%v), want running", rec.Status, err)
	}

	report, stats, err := (&Runner{
		Store: st, Workers: 3, Logger: discardLogger(),
	}).Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if report != golden {
		t.Errorf("resumed report differs from uninterrupted run:\n--- resumed\n%s\n--- golden\n%s", report, golden)
	}
	if stats.ChunksResumed == 0 {
		t.Error("resume recomputed everything; expected replayed chunks")
	}
	if got := stats.ChunksResumed + stats.ChunksComputed; got != chunks {
		t.Errorf("resumed %d + computed %d = %d chunks, want %d",
			stats.ChunksResumed, stats.ChunksComputed, got, chunks)
	}
	if n := len(st.EntriesByKind("checkpoint")); n != 0 {
		t.Errorf("%d checkpoints survived completion; want 0", n)
	}

	// A third run replays the stored result without touching a kernel.
	again, againStats, err := (&Runner{Store: st, Logger: discardLogger()}).Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("cached rerun: %v", err)
	}
	if again != golden {
		t.Error("cached rerun report differs from golden")
	}
	if againStats.Cached != 1 || againStats.ChunksComputed != 0 {
		t.Errorf("cached rerun stats = %+v, want 1 cached, 0 computed chunks", againStats)
	}
}

// TestRegistryEntryStoresServiceKey pins the cache-warming contract:
// a campaign's registry-experiment result lands under the service's
// canonical request key, so cogmimod can serve it as a cache hit.
func TestRegistryEntryStoresServiceKey(t *testing.T) {
	st := openStore(t, t.TempDir())
	spec := Spec{Name: "analytic", Experiments: []Experiment{{ID: "ext-conv", Seed: 1}}}
	report, stats, err := (&Runner{Store: st, Logger: discardLogger()}).Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if stats.Computed != 1 || stats.Cached != 0 {
		t.Fatalf("stats = %+v, want exactly one computed entry", stats)
	}
	if !strings.Contains(report, "ext-conv") {
		t.Fatalf("report does not mention the experiment:\n%s", report)
	}
	key := string(service.CanonicalKey(service.Request{ID: "ext-conv", Seed: 1}))
	payload, meta, ok := st.Get(key)
	if !ok {
		t.Fatal("result not stored under the service canonical key")
	}
	if meta.Kind != "result" || meta.Experiment != "ext-conv" {
		t.Fatalf("result meta = %+v", meta)
	}
	if !strings.Contains(report, string(payload)) {
		t.Error("stored section is not part of the campaign report")
	}
	if _, _, ok := st.Get(reportKey(spec.ID())); !ok {
		t.Error("campaign report not persisted")
	}

	again, againStats, err := (&Runner{Store: st, Logger: discardLogger()}).Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if againStats.Cached != 1 {
		t.Errorf("rerun stats = %+v, want the entry cached", againStats)
	}
	if again != report {
		t.Error("cached rerun produced different bytes")
	}
}

// TestBudgetedEntryStoresItsRequestResult: a registry entry with
// budget params is the service request whose key it is stored under.
// The campaign stores byte-for-byte what service.ExperimentRunner
// returns for that request, and a Service on the same store serves it
// for the same request without computing.
func TestBudgetedEntryStoresItsRequestResult(t *testing.T) {
	req := service.Request{ID: "ext-coopber", Seed: 1, Quick: true,
		Params: map[string]string{"target_ci": "0.5", "max_trials": "6144"}}
	want, err := service.ExperimentRunner(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := service.ExperimentRunner(context.Background(), service.Request{ID: req.ID, Seed: req.Seed, Quick: req.Quick})
	if err != nil {
		t.Fatal(err)
	}
	if fixed == want {
		t.Fatal("budget left the report unchanged; the test needs a budget that stops early")
	}

	st := openStore(t, t.TempDir())
	spec := Spec{Name: "budgeted", Experiments: []Experiment{{ID: req.ID, Seed: req.Seed, Quick: req.Quick, Params: req.Params}}}
	if _, _, err := (&Runner{Store: st, Workers: 2, Logger: discardLogger()}).Run(context.Background(), spec); err != nil {
		t.Fatalf("run: %v", err)
	}
	key := service.CanonicalKey(req)
	payload, _, ok := st.Get(string(key))
	if !ok {
		t.Fatal("result not stored under the request's canonical key")
	}
	if string(payload) != want {
		t.Fatalf("stored report differs from the request's report:\n%s\nwant:\n%s", payload, want)
	}

	svc, err := service.New(service.Config{
		Workers: 1, Store: st, Logger: discardLogger(),
		Runner: func(ctx context.Context, r service.Request) (string, error) {
			t.Errorf("service computed %+v instead of serving the stored result", r)
			return "", context.Canceled
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	defer svc.Stop(context.Background())
	jv, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	done, err := svc.Wait(context.Background(), jv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Key != key || done.State != service.StateDone || !done.CacheHit {
		t.Fatalf("service job = %+v, want a cache hit on %s", done, key)
	}
	if got, ok := svc.Result(key); !ok || got != want {
		t.Fatalf("service served %q, want the request's report", got)
	}
}

func TestManagerLifecycleAndRestartVisibility(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	mgr := NewManager(st, 0, discardLogger())
	spec := Spec{Name: "analytic", Experiments: []Experiment{{ID: "ext-conv", Seed: 1}}}

	id, started, err := mgr.Submit(spec)
	if err != nil || !started {
		t.Fatalf("Submit = (%q, %t, %v), want a fresh start", id, started, err)
	}
	if id2, started2, _ := mgr.Submit(spec); id2 != id || started2 {
		t.Fatalf("resubmit = (%q, %t), want existing run %q", id2, started2, id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	view, err := mgr.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if view.Status != "done" || view.Report == "" {
		t.Fatalf("campaign view = %+v, want done with a report", view)
	}
	if len(view.Experiments) != 1 || view.Experiments[0].Status != "done" {
		t.Fatalf("experiment statuses = %+v", view.Experiments)
	}
	if got := len(mgr.List()); got != 1 {
		t.Fatalf("List has %d campaigns, want 1", got)
	}
	if err := mgr.Stop(ctx); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	st.Close()

	// A fresh process sees the finished campaign from the store alone.
	st2 := openStore(t, dir)
	mgr2 := NewManager(st2, 0, discardLogger())
	view2, ok := mgr2.Get(id)
	if !ok {
		t.Fatal("restarted manager cannot see the stored campaign")
	}
	if view2.Status != "done" || view2.Report != view.Report {
		t.Fatalf("restarted view = status %q, report match %t", view2.Status, view2.Report == view.Report)
	}
	if len(view2.Experiments) != 1 || view2.Experiments[0].Status != "done" {
		t.Fatalf("restarted experiment statuses = %+v", view2.Experiments)
	}
	if n := mgr2.ResumeAll(); n != 0 {
		t.Fatalf("ResumeAll resumed %d finished campaigns", n)
	}
	if _, ok := mgr2.Get("c0000000000000000"); ok {
		t.Error("Get invented a campaign that does not exist")
	}
}

func TestManagerResumeAllFinishesInterrupted(t *testing.T) {
	dir := t.TempDir()
	spec := kernelSpec(4 * sim.ChunkSize)
	st := openStore(t, dir)

	// Interrupt before any chunk runs: the spec and a "running" state
	// are durable, which is all resume discovery needs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := (&Runner{Store: st, Logger: discardLogger()}).Run(ctx, spec); err == nil {
		t.Fatal("cancelled run reported success")
	}
	st.Close()

	st2 := openStore(t, dir)
	mgr := NewManager(st2, 2, discardLogger())
	if n := mgr.ResumeAll(); n != 1 {
		t.Fatalf("ResumeAll resumed %d campaigns, want 1", n)
	}
	wctx, wcancel := context.WithTimeout(context.Background(), time.Minute)
	defer wcancel()
	view, err := mgr.Wait(wctx, spec.ID())
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if view.Status != "done" || view.Report == "" {
		t.Fatalf("resumed campaign = %+v, want done with a report", view)
	}
	if n := mgr.ResumeAll(); n != 0 {
		t.Errorf("second ResumeAll resumed %d campaigns, want 0", n)
	}
	if err := mgr.Stop(wctx); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}
