// Package loadgen drives a synthetic many-tenant workload against the
// real cogmimod HTTP stack (internal/httpapi over internal/service,
// hosted on an httptest listener) and measures scheduling fairness.
//
// The workload is deliberately adversarial: one heavy tenant submits
// its entire burst — an order of magnitude more jobs than anyone else —
// before any light tenant shows up. Under the old global FIFO the
// heavy backlog would run first and every light tenant's p99 queue
// wait would stretch to the whole burst; under fair
// scheduling the light tenants interleave with the heavy backlog and
// their p99 stays within a small factor of the fair completion
// horizon. The synthetic runner holds every job until the last
// submission has landed, so the scheduler always chooses from the whole
// backlog instead of racing the HTTP submissions; queue waits and job
// times count from that release. Run asserts both views of that
// property:
//
//   - light p99 queue wait ≤ FairShareRatio × fair share, where the
//     fair share is jobsPerTenant × tenants × measured mean job time /
//     workers — the horizon by which every tenant's own backlog drains
//     under round-robin service;
//   - light p99 queue wait ≤ heavy p99 queue wait: the heavy tenant's
//     10× backlog must finish after the light tenants, never by
//     starving them (FIFO inverts this ratio by ~6×).
//
// A subset of jobs is followed over the SSE stream
// (GET /v1/jobs/{id}/events) and checked for monotonic progress ending
// in a complete event — the streaming path exercised under real
// concurrency, no polling anywhere.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/tenant"
)

// Config sizes the synthetic workload. Zero values pick the defaults
// TestFairnessUnderHeavyTenant runs.
type Config struct {
	// Tenants is the total tenant count, one of which is heavy;
	// 0 means 50.
	Tenants int
	// JobsPerTenant is each light tenant's burst; 0 means 4.
	JobsPerTenant int
	// HeavyFactor multiplies JobsPerTenant for the heavy tenant;
	// 0 means 10.
	HeavyFactor int
	// Workers is the service worker pool; 0 means 8.
	Workers int
	// JobDuration is the synthetic busy time per job; 0 means 10ms.
	JobDuration time.Duration
	// ProgressSteps is how many progress increments each job emits;
	// 0 means 4.
	ProgressSteps int
	// FairShareRatio bounds light p99 against the fair completion
	// horizon; 0 means 2.0.
	FairShareRatio float64
	// SSEWatchers is how many jobs to follow over the event stream;
	// 0 means 3.
	SSEWatchers int
	// Logger receives the server's logs; nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Tenants <= 0 {
		c.Tenants = 50
	}
	if c.JobsPerTenant <= 0 {
		c.JobsPerTenant = 4
	}
	if c.HeavyFactor <= 0 {
		c.HeavyFactor = 10
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.JobDuration <= 0 {
		c.JobDuration = 10 * time.Millisecond
	}
	if c.ProgressSteps <= 0 {
		c.ProgressSteps = 4
	}
	if c.FairShareRatio <= 0 {
		c.FairShareRatio = 2.0
	}
	if c.SSEWatchers <= 0 {
		c.SSEWatchers = 3
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Report is the measured outcome of one load run.
type Report struct {
	Tenants       int           `json:"tenants"`
	JobsSubmitted int           `json:"jobs_submitted"`
	Workers       int           `json:"workers"`
	Wall          time.Duration `json:"wall"`
	MeanJob       time.Duration `json:"mean_job"`
	FairShare     time.Duration `json:"fair_share"`
	LightP99Wait  time.Duration `json:"light_p99_wait"`
	HeavyP99Wait  time.Duration `json:"heavy_p99_wait"`
	LightMaxWait  time.Duration `json:"light_max_wait"`
	SSEEvents     int           `json:"sse_events"`
	SSECompleted  int           `json:"sse_completed"`
}

func (r Report) String() string {
	return fmt.Sprintf(
		"tenants=%d jobs=%d workers=%d wall=%v mean_job=%v fair_share=%v "+
			"light_p99_wait=%v heavy_p99_wait=%v light_max_wait=%v sse_events=%d sse_completed=%d",
		r.Tenants, r.JobsSubmitted, r.Workers, r.Wall.Round(time.Millisecond),
		r.MeanJob.Round(time.Microsecond), r.FairShare.Round(time.Millisecond),
		r.LightP99Wait.Round(time.Millisecond), r.HeavyP99Wait.Round(time.Millisecond),
		r.LightMaxWait.Round(time.Millisecond), r.SSEEvents, r.SSECompleted)
}

// Run executes the workload and checks the fairness and streaming
// assertions, returning the measurements either way (callers print the
// report even on failure).
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	totalJobs := (cfg.Tenants-1)*cfg.JobsPerTenant + cfg.HeavyFactor*cfg.JobsPerTenant

	gate := make(chan struct{})
	runner := func(ctx context.Context, req service.Request) (string, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return "", ctx.Err()
		}
		p := obs.ProgressFrom(ctx)
		p.AddTotal(int64(cfg.ProgressSteps))
		step := cfg.JobDuration / time.Duration(cfg.ProgressSteps)
		for i := 0; i < cfg.ProgressSteps; i++ {
			select {
			case <-ctx.Done():
				return "", ctx.Err()
			case <-time.After(step):
			}
			p.Add(1)
		}
		return "synthetic", nil
	}
	svc, err := service.New(service.Config{
		Workers: cfg.Workers,
		// The whole burst sits queued at once; the queue must hold it so
		// fairness is measured on scheduling, not on 429 shedding.
		QueueDepth: totalJobs + cfg.Workers,
		MaxJobs:    totalJobs + cfg.Workers,
		Runner:     runner,
		Logger:     cfg.Logger,
	})
	if err != nil {
		return Report{}, err
	}
	svc.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Stop(ctx)
	}()
	ts := httptest.NewServer(httpapi.NewMux(svc, httpapi.Config{Logger: cfg.Logger}))
	defer ts.Close()
	client := ts.Client()

	submit := func(tid string, seed int) (string, error) {
		body, _ := json.Marshal(map[string]any{"id": "synthetic", "seed": seed})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/experiments", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(tenant.Header, tid)
		resp, err := client.Do(req)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		var decoded struct {
			Job   string `json:"job"`
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusAccepted {
			return "", fmt.Errorf("submit for %s: status %d: %s", tid, resp.StatusCode, decoded.Error)
		}
		return decoded.Job, nil
	}

	// The heavy tenant's entire burst lands before any light tenant —
	// the FIFO-starvation worst case.
	heavyJobs := make([]string, 0, cfg.HeavyFactor*cfg.JobsPerTenant)
	seed := 0
	for i := 0; i < cfg.HeavyFactor*cfg.JobsPerTenant; i++ {
		seed++
		id, err := submit("heavy", seed)
		if err != nil {
			return Report{}, err
		}
		heavyJobs = append(heavyJobs, id)
	}
	lightJobs := make([]string, 0, (cfg.Tenants-1)*cfg.JobsPerTenant)
	for round := 0; round < cfg.JobsPerTenant; round++ {
		for t := 1; t < cfg.Tenants; t++ {
			seed++
			id, err := submit(fmt.Sprintf("light-%03d", t), seed)
			if err != nil {
				return Report{}, err
			}
			lightJobs = append(lightJobs, id)
		}
	}

	// Follow a few jobs over SSE while the burst drains: the first heavy
	// job still queued plus the last-submitted light jobs (the deepest
	// in the backlog, so the streams span real queue time).
	watch := make([]string, 0, cfg.SSEWatchers)
	if len(heavyJobs) > 0 {
		watch = append(watch, heavyJobs[len(heavyJobs)-1])
	}
	for i := len(lightJobs) - 1; i >= 0 && len(watch) < cfg.SSEWatchers; i-- {
		watch = append(watch, lightJobs[i])
	}
	outcomes := make([]sseOutcome, len(watch))
	var wg sync.WaitGroup
	for i, jobID := range watch {
		wg.Add(1)
		go func(i int, jobID string) {
			defer wg.Done()
			outcomes[i] = followSSE(client, ts.URL, jobID)
		}(i, jobID)
	}

	released := time.Now()
	close(gate)
	deadline := time.Now().Add(5 * time.Minute)
	for {
		st := svc.Stats()
		if int(st.Done) >= totalJobs {
			break
		}
		if st.Failed > 0 || st.Canceled > 0 {
			return Report{}, fmt.Errorf("jobs failed=%d canceled=%d", st.Failed, st.Canceled)
		}
		if time.Now().After(deadline) {
			return Report{}, fmt.Errorf("burst not drained: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	wall := time.Since(released)
	wg.Wait()

	// Collect per-job queue waits and run times from the job views, both
	// counted from the release: before it no job could run, so the
	// scheduler's order is all a wait measures.
	var ran time.Duration
	sinceRelease := func(from, to time.Time) time.Duration {
		if from.Before(released) {
			from = released
		}
		return max(to.Sub(from), 0)
	}
	collect := func(ids []string) ([]time.Duration, error) {
		out := make([]time.Duration, 0, len(ids))
		for _, id := range ids {
			resp, err := client.Get(ts.URL + "/v1/jobs/" + id)
			if err != nil {
				return nil, err
			}
			var jv struct {
				State    string    `json:"state"`
				Queued   time.Time `json:"queued_at"`
				Started  time.Time `json:"started_at"`
				Finished time.Time `json:"finished_at"`
			}
			err = json.NewDecoder(resp.Body).Decode(&jv)
			resp.Body.Close()
			if err != nil {
				return nil, err
			}
			if jv.State != "done" || jv.Started.IsZero() {
				return nil, fmt.Errorf("job %s not done: %s", id, jv.State)
			}
			out = append(out, sinceRelease(jv.Queued, jv.Started))
			ran += sinceRelease(jv.Started, jv.Finished)
		}
		return out, nil
	}
	heavyWaits, err := collect(heavyJobs)
	if err != nil {
		return Report{}, err
	}
	lightWaits, err := collect(lightJobs)
	if err != nil {
		return Report{}, err
	}

	mean := ran / time.Duration(totalJobs)
	fairShare := time.Duration(float64(cfg.JobsPerTenant*cfg.Tenants) *
		float64(mean) / float64(cfg.Workers))
	rep := Report{
		Tenants:       cfg.Tenants,
		JobsSubmitted: totalJobs,
		Workers:       cfg.Workers,
		Wall:          wall,
		MeanJob:       mean,
		FairShare:     fairShare,
		LightP99Wait:  p99(lightWaits),
		HeavyP99Wait:  p99(heavyWaits),
		LightMaxWait:  maxOf(lightWaits),
	}
	for _, o := range outcomes {
		if o.err != nil {
			return rep, fmt.Errorf("sse stream: %w", o.err)
		}
		rep.SSEEvents += o.events
		if o.completed {
			rep.SSECompleted++
		}
	}

	if rep.SSECompleted != len(watch) {
		return rep, fmt.Errorf("sse: %d/%d streams reached a complete event", rep.SSECompleted, len(watch))
	}
	if limit := time.Duration(cfg.FairShareRatio * float64(fairShare)); rep.LightP99Wait > limit {
		return rep, fmt.Errorf("light p99 queue wait %v exceeds %.1f× fair share %v — heavy tenant starved the light ones",
			rep.LightP99Wait, cfg.FairShareRatio, fairShare)
	}
	if rep.LightP99Wait > rep.HeavyP99Wait {
		return rep, fmt.Errorf("light p99 queue wait %v exceeds heavy p99 %v — the 10× backlog did not finish last",
			rep.LightP99Wait, rep.HeavyP99Wait)
	}
	return rep, nil
}

// followSSE consumes one job's event stream to completion, checking
// event framing and progress monotonicity.
func followSSE(client *http.Client, base, jobID string) (o sseOutcome) {
	resp, err := client.Get(base + "/v1/jobs/" + jobID + "/events?interval=5ms")
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("events status %d for %s", resp.StatusCode, jobID)
		return o
	}
	prevDone := int64(-1)
	o.err = httpapi.ReadSSE(resp.Body, func(ev httpapi.Event) error {
		o.events++
		var jv struct {
			Job      string `json:"job"`
			State    string `json:"state"`
			Progress *struct {
				Done  int64 `json:"done_trials"`
				Total int64 `json:"total_trials"`
			} `json:"progress"`
		}
		if err := json.Unmarshal(ev.Data, &jv); err != nil {
			return err
		}
		if jv.Job != jobID {
			return fmt.Errorf("event for %s on %s's stream", jv.Job, jobID)
		}
		if jv.Progress != nil {
			if jv.Progress.Done < prevDone {
				return fmt.Errorf("progress went backwards on %s: %d after %d",
					jobID, jv.Progress.Done, prevDone)
			}
			prevDone = jv.Progress.Done
		}
		if ev.Name == "complete" {
			if jv.State != "done" {
				return fmt.Errorf("complete event with state %q", jv.State)
			}
			o.completed = true
		}
		return nil
	})
	return o
}

// sseOutcome is one followed stream's tally.
type sseOutcome struct {
	events    int
	completed bool
	err       error
}

func p99(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (99*len(sorted) + 99) / 100
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

func maxOf(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}
