package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/store"
)

// ExpStatus is one experiment's live view inside a campaign status.
type ExpStatus struct {
	Name   string `json:"name"`
	Status string `json:"status"` // pending | running | done | cached | failed
	// Trial progress while running, fed by the entry's obs.Tracker.
	DoneTrials  int64 `json:"done_trials,omitempty"`
	TotalTrials int64 `json:"total_trials,omitempty"`
}

// Status is the HTTP-facing snapshot of a campaign.
type Status struct {
	ID          string      `json:"campaign"`
	Name        string      `json:"name"`
	Status      string      `json:"status"` // running | done | failed
	Error       string      `json:"error,omitempty"`
	Stats       *RunStats   `json:"stats,omitempty"`
	Experiments []ExpStatus `json:"experiments,omitempty"`
	Report      string      `json:"report,omitempty"`
}

// expTrack is the manager-owned mutable record behind an ExpStatus;
// all fields are guarded by the owning campaignRun's mutex.
type expTrack struct {
	name    string
	status  string
	tracker *obs.Tracker
}

// campaignRun is one tracked campaign execution. Its own mutex guards
// the mutable fields so observer callbacks (runner goroutine) never
// race status snapshots (HTTP goroutines).
type campaignRun struct {
	spec Spec
	done chan struct{} // closed on terminal state

	mu     sync.Mutex
	status string // running | done | failed
	errMsg string
	report string
	stats  RunStats
	exps   []*expTrack
}

// Manager owns campaign executions for a long-lived process (cogmimod):
// it deduplicates submissions by content-addressed ID, runs each
// campaign on its own goroutine, surfaces live per-experiment progress,
// and on boot resumes every campaign the previous process left
// unfinished.
type Manager struct {
	runner  Runner
	baseCtx context.Context
	stop    context.CancelFunc

	mu   sync.Mutex
	runs map[string]*campaignRun
	wg   sync.WaitGroup
}

// NewManager builds a manager executing campaigns through st.
func NewManager(st *store.Store, workers int, logger *slog.Logger) *Manager {
	if logger == nil {
		logger = slog.Default()
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		runner:  Runner{Store: st, Workers: workers, Logger: logger},
		baseCtx: ctx,
		stop:    cancel,
		runs:    make(map[string]*campaignRun),
	}
}

// Submit starts spec unless the same campaign is already tracked.
// Submission is idempotent by construction: the ID is a content hash,
// so resubmitting a spec returns the existing run (started reports
// false) instead of racing a duplicate against it.
func (m *Manager) Submit(spec Spec) (id string, started bool, err error) {
	if err := spec.Validate(); err != nil {
		return "", false, err
	}
	cid := spec.ID()
	m.mu.Lock()
	if _, ok := m.runs[cid]; ok {
		m.mu.Unlock()
		return cid, false, nil
	}
	run := &campaignRun{
		spec:   spec,
		done:   make(chan struct{}),
		status: "running",
		exps:   make([]*expTrack, len(spec.Experiments)),
	}
	for i, e := range spec.Experiments {
		run.exps[i] = &expTrack{name: e.DisplayName(), status: "pending"}
	}
	m.runs[cid] = run
	m.wg.Add(1)
	m.mu.Unlock()

	go func() {
		defer m.wg.Done()
		r := m.runner // copy: per-run Observer must not race other runs
		r.Observer = (*runObserver)(run)
		report, stats, rerr := r.Run(m.baseCtx, spec)
		run.mu.Lock()
		defer run.mu.Unlock()
		run.stats = stats
		switch {
		case rerr == nil:
			run.status, run.report = "done", report
		case m.baseCtx.Err() != nil:
			// Shutdown interruption: durable state is still "running",
			// and the next boot's ResumeAll will finish the campaign.
			run.errMsg = rerr.Error()
		default:
			run.status, run.errMsg = "failed", rerr.Error()
		}
		close(run.done)
	}()
	return cid, true, nil
}

// runObserver adapts a campaignRun to the runner's Observer interface.
type runObserver campaignRun

func (o *runObserver) ExperimentStarted(i int, name string, tracker *obs.Tracker) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.exps[i].tracker = tracker
	o.exps[i].status = "running"
}

func (o *runObserver) ExperimentFinished(i int, name string, cached bool, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	switch {
	case err != nil:
		o.exps[i].status = "failed"
	case cached:
		o.exps[i].status = "cached"
	default:
		o.exps[i].status = "done"
	}
}

// Get returns a campaign's status. Live runs answer from memory;
// otherwise the durable store is consulted, so campaigns finished by a
// previous process remain queryable after a restart.
func (m *Manager) Get(id string) (Status, bool) {
	m.mu.Lock()
	run, ok := m.runs[id]
	m.mu.Unlock()
	if ok {
		return statusOf(id, run), true
	}
	return m.storedStatus(id)
}

// List returns every known campaign — live and durable — sorted by ID.
func (m *Manager) List() []Status {
	seen := make(map[string]bool)
	var out []Status
	m.mu.Lock()
	ids := make([]string, 0, len(m.runs))
	for id := range m.runs {
		ids = append(ids, id)
	}
	m.mu.Unlock()
	for _, id := range ids {
		if st, ok := m.Get(id); ok {
			out = append(out, st)
			seen[id] = true
		}
	}
	for _, e := range m.runner.Store.EntriesByKind("campaign-spec") {
		id := strings.TrimSuffix(strings.TrimPrefix(e.Key, "campaign/"), "/spec")
		if seen[id] {
			continue
		}
		if st, ok := m.storedStatus(id); ok {
			out = append(out, st)
			seen[id] = true
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ResumeAll restarts every stored campaign whose durable state is not
// terminal — the crash-recovery path cogmimod runs at boot. Completed
// experiments replay from stored results and in-flight kernel runs
// re-enter their chunk plans at the first unfinished chunk, so resuming
// is cheap and byte-identical. Returns how many campaigns were resumed.
func (m *Manager) ResumeAll() int {
	resumed := 0
	for _, e := range m.runner.Store.EntriesByKind("campaign-spec") {
		payload, _, ok := m.runner.Store.Get(e.Key)
		if !ok {
			continue
		}
		spec, err := ParseSpec(payload)
		if err != nil {
			m.runner.Logger.Warn("stored campaign spec no longer parses; skipping",
				"key", e.Key, "error", err)
			continue
		}
		cid := spec.ID()
		if st, ok := m.storedStatus(cid); ok && st.Status != "running" {
			continue // done or failed: nothing to resume
		}
		if _, started, err := m.Submit(spec); err == nil && started {
			m.runner.Logger.Info("resuming campaign", "campaign", cid, "name", spec.Name)
			resumed++
		}
	}
	return resumed
}

// Wait blocks until the campaign reaches a terminal state or ctx
// expires, then returns its status.
func (m *Manager) Wait(ctx context.Context, id string) (Status, error) {
	m.mu.Lock()
	run, ok := m.runs[id]
	m.mu.Unlock()
	if !ok {
		if st, found := m.storedStatus(id); found {
			return st, nil
		}
		return Status{}, fmt.Errorf("campaign: no such campaign %q", id)
	}
	select {
	case <-run.done:
		return statusOf(id, run), nil
	case <-ctx.Done():
		return statusOf(id, run), ctx.Err()
	}
}

// Stop cancels running campaigns and waits for their goroutines; their
// durable state stays "running", so the next boot resumes them.
func (m *Manager) Stop(ctx context.Context) error {
	m.stop()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// statusOf snapshots a live run.
func statusOf(id string, run *campaignRun) Status {
	run.mu.Lock()
	defer run.mu.Unlock()
	st := Status{
		ID:     id,
		Name:   run.spec.Name,
		Status: run.status,
		Error:  run.errMsg,
		Report: run.report,
	}
	if run.status != "running" {
		stats := run.stats
		st.Stats = &stats
	}
	for _, e := range run.exps {
		es := ExpStatus{Name: e.name, Status: e.status}
		if snap := e.tracker.Snapshot(); snap.Total > 0 {
			es.DoneTrials, es.TotalTrials = snap.Done, snap.Total
		}
		st.Experiments = append(st.Experiments, es)
	}
	return st
}

// storedStatus reconstructs a status from the durable store alone —
// the view of campaigns run by previous processes. A spec with no
// state record counts as "running": the writer crashed before its
// first state write, and ResumeAll should pick it up.
func (m *Manager) storedStatus(id string) (Status, bool) {
	st := m.runner.Store
	specPayload, _, ok := st.Get(specKey(id))
	if !ok {
		return Status{}, false
	}
	var spec Spec
	status := Status{ID: id, Status: "running"}
	if json.Unmarshal(specPayload, &spec) == nil {
		status.Name = spec.Name
		for _, e := range spec.Experiments {
			es := ExpStatus{Name: e.DisplayName(), Status: "pending"}
			if key, _ := resultKey(e); st.Has(key) {
				es.Status = "done"
			}
			status.Experiments = append(status.Experiments, es)
		}
	}
	if payload, _, ok := st.Get(stateKey(id)); ok {
		var rec stateRecord
		if json.Unmarshal(payload, &rec) == nil && rec.Status != "" {
			status.Status, status.Error = rec.Status, rec.Error
		}
	}
	if payload, _, ok := st.Get(reportKey(id)); ok {
		status.Report = string(payload)
	}
	return status, true
}
