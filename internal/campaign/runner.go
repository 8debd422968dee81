package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
)

// defaultCheckpointChunks is the chunk interval between checkpoint
// persists when the spec does not set checkpoint_chunks.
const defaultCheckpointChunks = 4

// An Observer watches a campaign run; the cogmimod Manager uses it to
// expose per-experiment progress over HTTP. Callbacks arrive from the
// runner's goroutine, in experiment order.
type Observer interface {
	// ExperimentStarted fires when entry i begins computing (cache hits
	// skip it). tracker carries the entry's live trial progress.
	ExperimentStarted(i int, name string, tracker *obs.Tracker)
	// ExperimentFinished fires when entry i resolves, cached or not.
	ExperimentFinished(i int, name string, cached bool, err error)
}

// RunStats summarises what one campaign run actually did — how much
// work checkpoints and the result cache saved.
type RunStats struct {
	Experiments    int   `json:"experiments"`
	Computed       int   `json:"computed"`
	Cached         int   `json:"cached"`
	ChunksResumed  int64 `json:"chunks_resumed"`
	ChunksComputed int64 `json:"chunks_computed"`
	Checkpoints    int64 `json:"checkpoints"`
}

// stateRecord is the campaign/<id>/state payload.
type stateRecord struct {
	Status string `json:"status"` // running | done | failed
	Error  string `json:"error,omitempty"`
}

// Runner executes campaign specs against a durable store.
type Runner struct {
	// Store persists specs, checkpoints, results and reports. Required.
	Store *store.Store
	// Workers caps Monte-Carlo and sweep-row concurrency; 0 means
	// GOMAXPROCS. Any value yields bit-identical reports.
	Workers int
	// Logger receives campaign lifecycle logs; nil means slog.Default().
	Logger *slog.Logger
	// Observer, when non-nil, watches experiment transitions.
	Observer Observer
}

// Run executes spec to completion and returns the campaign report. The
// run is crash-safe: every completed experiment persists its result
// before its checkpoints are dropped, every in-flight kernel run
// checkpoints its chunk prefix, and rerunning the same spec — after a
// crash, a cancellation or a clean finish — replays everything durable
// and produces a byte-identical report.
//
// A context cancellation returns ctx's error and leaves the campaign's
// durable state "running" so resume-on-boot picks it back up; any
// other failure marks it "failed".
func (r *Runner) Run(ctx context.Context, spec Spec) (string, RunStats, error) {
	if r.Store == nil {
		return "", RunStats{}, fmt.Errorf("campaign: Runner.Store is required")
	}
	if err := spec.Validate(); err != nil {
		return "", RunStats{}, err
	}
	logger := r.Logger
	if logger == nil {
		logger = slog.Default()
	}
	cid := spec.ID()
	logger = logger.With("campaign", cid, "name", spec.Name)

	every := spec.CheckpointChunks
	if every <= 0 {
		every = defaultCheckpointChunks
	}

	specJSON, err := json.Marshal(spec)
	if err != nil {
		return "", RunStats{}, fmt.Errorf("campaign: encoding spec: %w", err)
	}
	if err := r.Store.Put(specKey(cid), specJSON, store.Meta{Kind: "campaign-spec", Experiment: spec.Name}); err != nil {
		return "", RunStats{}, fmt.Errorf("campaign: persisting spec: %w", err)
	}
	r.putState(cid, stateRecord{Status: "running"})
	logger.Info("campaign started", "experiments", len(spec.Experiments), "checkpoint_chunks", every)

	stats := RunStats{Experiments: len(spec.Experiments)}
	counters := &runCounters{}
	sections := make([]string, 0, len(spec.Experiments))
	for i, e := range spec.Experiments {
		section, cached, err := r.runExperiment(ctx, cid, i, e, every, counters)
		if err != nil {
			stats.flushCounters(counters)
			if ctx.Err() != nil {
				// Interrupted, not failed: durable state stays "running"
				// so ResumeAll re-enters at the first unfinished chunk.
				metRuns.With("interrupted").Inc()
				logger.Info("campaign interrupted", "experiment", e.DisplayName(), "cause", ctx.Err())
				return "", stats, err
			}
			metExperiments.With("failed").Inc()
			metRuns.With("failed").Inc()
			r.putState(cid, stateRecord{Status: "failed", Error: err.Error()})
			logger.Error("campaign failed", "experiment", e.DisplayName(), "error", err)
			return "", stats, fmt.Errorf("campaign %s: experiment %d (%s): %w", cid, i, e.DisplayName(), err)
		}
		if cached {
			stats.Cached++
			metExperiments.With("cached").Inc()
		} else {
			stats.Computed++
			metExperiments.With("computed").Inc()
		}
		sections = append(sections, section)
	}
	stats.flushCounters(counters)

	report := renderReport(spec, sections)
	if err := r.Store.Put(reportKey(cid), []byte(report), store.Meta{Kind: "campaign-report", Experiment: spec.Name}); err != nil {
		return "", stats, fmt.Errorf("campaign: persisting report: %w", err)
	}
	r.putState(cid, stateRecord{Status: "done"})
	metRuns.With("done").Inc()
	logger.Info("campaign done",
		"computed", stats.Computed, "cached", stats.Cached,
		"chunks_resumed", stats.ChunksResumed, "chunks_computed", stats.ChunksComputed)
	return report, stats, nil
}

// runExperiment resolves one entry: from the durable result if present,
// otherwise by computing it under a checkpointing executor. The result
// persists before the entry's checkpoints are deleted, so a crash
// between the two at worst leaves dead checkpoints that the next GC or
// completed rerun clears.
func (r *Runner) runExperiment(ctx context.Context, cid string, i int, e Experiment, every int, counters *runCounters) (section string, cached bool, err error) {
	name := e.DisplayName()
	key, meta := resultKey(e)
	if payload, _, ok := r.Store.Get(key); ok {
		if r.Observer != nil {
			r.Observer.ExperimentFinished(i, name, true, nil)
		}
		return string(payload), true, nil
	}

	tracker := obs.NewTracker()
	if r.Observer != nil {
		r.Observer.ExperimentStarted(i, name, tracker)
	}
	ex := &ckptExecutor{
		store: r.Store, cid: cid, expIdx: i,
		every: every, workers: r.Workers, stats: counters,
	}
	rctx := obs.WithProgress(ctx, tracker)
	rctx = sim.WithExecutor(rctx, ex)

	if e.ID != "" {
		section, err = service.RunExperiment(rctx, e.request(), r.Workers)
	} else {
		section, err = r.runKernelEntry(rctx, e)
	}
	if r.Observer != nil {
		r.Observer.ExperimentFinished(i, name, false, err)
	}
	if err != nil {
		return "", false, err
	}

	if perr := r.Store.Put(key, []byte(section), meta); perr != nil {
		return "", false, fmt.Errorf("persisting result: %w", perr)
	}
	r.Store.DeletePrefix(ckptPrefix(cid, i))
	return section, false, nil
}

// runKernelEntry executes a raw kernel entry under ctx — which carries
// the checkpointing executor — and renders its statistics as a one-row
// report section.
func (r *Runner) runKernelEntry(ctx context.Context, e Experiment) (string, error) {
	mc := sim.MonteCarlo{Seed: e.Seed, Workers: r.Workers}
	total, err := mc.RunKernelCtx(ctx, e.Kernel, e.KernelParams, e.Trials)
	if err != nil {
		return "", err
	}
	title := fmt.Sprintf("%d trials, seed %d", e.Trials, e.Seed)
	if len(e.KernelParams) > 0 {
		pairs := make([]string, 0, len(e.KernelParams))
		for _, k := range sortedFloatKeys(e.KernelParams) {
			pairs = append(pairs, k+"="+strconv.FormatFloat(e.KernelParams[k], 'g', -1, 64))
		}
		title += ", " + strings.Join(pairs, " ")
	}
	rep := &experiments.Report{
		ID:     "kernel:" + e.Kernel,
		Title:  title,
		Header: []string{"n", "mean", "stderr", "ci95"},
		Rows: [][]string{{
			strconv.FormatInt(total.N(), 10),
			strconv.FormatFloat(total.Mean(), 'g', -1, 64),
			strconv.FormatFloat(total.StdErr(), 'g', -1, 64),
			strconv.FormatFloat(total.CI95(), 'g', -1, 64),
		}},
	}
	return rep.String(), nil
}

// resultKey maps an entry onto its durable result address. Registry
// entries use the service's canonical key of the request they run, so
// a campaign result doubles as a warm cogmimod cache entry; kernel
// entries use the run's content hash.
func resultKey(e Experiment) (string, store.Meta) {
	if e.ID != "" {
		key := service.CanonicalKey(e.request())
		return string(key), store.Meta{Kind: "result", Experiment: e.ID, Seed: e.Seed}
	}
	run := sim.KernelRun{Kernel: e.Kernel, Params: e.KernelParams, Seed: e.Seed, Trials: e.Trials}
	return "kernel/" + runHash(run), store.Meta{Kind: "kernel-result", Experiment: e.Kernel, Seed: e.Seed}
}

// renderReport assembles the final campaign report. Sections are the
// per-entry reports (each already newline-terminated) separated by
// blank lines, under a small header — entirely a function of the spec
// and the entry statistics, so resumed runs reproduce it byte for byte.
func renderReport(spec Spec, sections []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== campaign: %s ==\n", spec.Name)
	fmt.Fprintf(&b, "experiments: %d\n\n", len(spec.Experiments))
	b.WriteString(strings.Join(sections, "\n"))
	return b.String()
}

// putState best-effort persists the campaign lifecycle record; state is
// advisory (resume decisions read it) while correctness rests on
// results and checkpoints, so a write failure logs rather than aborts.
func (r *Runner) putState(cid string, st stateRecord) {
	payload, _ := json.Marshal(st)
	if err := r.Store.Put(stateKey(cid), payload, store.Meta{Kind: "campaign-state"}); err != nil {
		lg := r.Logger
		if lg == nil {
			lg = slog.Default()
		}
		lg.Warn("campaign state write failed", "campaign", cid, "error", err)
	}
}

// flushCounters folds the executor's atomic counters into the stats
// snapshot.
func (s *RunStats) flushCounters(c *runCounters) {
	s.ChunksResumed = c.chunksResumed.Load()
	s.ChunksComputed = c.chunksComputed.Load()
	s.Checkpoints = c.checkpoints.Load()
}
