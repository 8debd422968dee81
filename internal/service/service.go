package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/adaptive"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/tenant"
)

// Request identifies one experiment computation. Params carries solver
// configuration (e.g. a future "solver=montecarlo samples=40000") and
// participates in the cache key; the default runner ignores unknown
// parameters rather than failing, so keys stay forward-compatible.
type Request struct {
	ID     string            `json:"id"`
	Seed   int64             `json:"seed"`
	Quick  bool              `json:"quick,omitempty"`
	Params map[string]string `json:"params,omitempty"`
	// Tenant names the submitting tenant for scheduling, quotas, logs
	// and metrics; empty means the anonymous default tenant. It is
	// excluded from the cache key: the same computation answers every
	// tenant, whoever paid for it first.
	Tenant string `json:"tenant,omitempty"`
}

// Runner computes the report text for a request. It must honor ctx.
type Runner func(ctx context.Context, req Request) (string, error)

// State is a job lifecycle state; see the package documentation for the
// transition diagram.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether a job in this state will never change again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// ProgressInfo is the live work accounting of a running (or finished)
// job, fed by the drivers through the job context's obs.Progress sink.
// Trials are whatever unit the driver reports — Monte-Carlo trials for
// sim-backed experiments, sweep points or testbed runs elsewhere.
type ProgressInfo struct {
	DoneTrials     int64   `json:"done_trials"`
	TotalTrials    int64   `json:"total_trials"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// JobView is an immutable snapshot of a job.
type JobView struct {
	ID       string        `json:"job"`
	Tenant   string        `json:"tenant"`
	Request  Request       `json:"request"`
	Key      Key           `json:"key"`
	State    State         `json:"state"`
	CacheHit bool          `json:"cached"`
	Error    string        `json:"error,omitempty"`
	TraceID  string        `json:"trace_id,omitempty"`
	Queued   time.Time     `json:"queued_at"`
	Started  time.Time     `json:"started_at,omitzero"`
	Finished time.Time     `json:"finished_at,omitzero"`
	Progress *ProgressInfo `json:"progress,omitempty"`
}

// job is the service-owned mutable record behind a JobView. All fields
// below mu are guarded by the service mutex.
type job struct {
	id      string
	req     Request // req.Tenant is canonical by construction
	key     Key
	traceID string
	// parent is the submitting request's span identity, captured at
	// SubmitCtx so the queued job's span tree hangs off the HTTP span
	// across the asynchronous gap. Zero when the submitter had no
	// recording span.
	parent obs.SpanContext
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed on terminal state
	// signal is raised on every progress update and state transition,
	// so watchers (SSE streams) re-snapshot instead of polling.
	signal *obs.Signal

	state     State
	cacheHit  bool
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	tracker   *obs.Tracker // set when the job starts running
}

// Stats is a point-in-time snapshot of service counters: the one count
// behind /v1/stats, /healthz and /metrics/prom, which the HTTP layer
// renders from a single snapshot per request.
type Stats struct {
	Submitted      int64 `json:"jobs_submitted"`
	Rejected       int64 `json:"jobs_rejected"`
	QuotaRejected  int64 `json:"jobs_quota_rejected"`
	Done           int64 `json:"jobs_done"`
	Failed         int64 `json:"jobs_failed"`
	Canceled       int64 `json:"jobs_canceled"`
	QueueDepth     int   `json:"queue_depth"`
	QueueCapacity  int   `json:"queue_capacity"`
	Workers        int   `json:"workers"`
	BusyWorkers    int   `json:"busy_workers"`
	ActiveTenants  int   `json:"active_tenants"`
	CacheEntries   int   `json:"cache_entries"`
	CacheHits      int64 `json:"cache_hits"`
	CacheDiskHits  int64 `json:"cache_disk_hits"`
	CacheCoalesced int64 `json:"cache_coalesced"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	// CacheHitRatio is hits/(hits+misses) over completed lookups, 0
	// before any traffic. Coalesced waits count as neither.
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	// MeanJobSeconds is the average wall-clock of jobs that ran to a
	// terminal state, 0 before the first one. Cache hits answered
	// without running are excluded, so the value estimates how long a
	// queued job will occupy a worker.
	MeanJobSeconds float64 `json:"mean_job_seconds"`
	// Store snapshots the durable store backing the cache; nil without
	// one (no -data-dir).
	Store *store.Stats `json:"store,omitempty"`
}

// Config sizes a Service. Zero values pick sane defaults.
type Config struct {
	// Workers is the pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker across
	// all tenants; 0 means 64. Submissions beyond the bound fail with
	// ErrQueueFull. A lone tenant may use the whole queue, so a
	// single-tenant service behaves exactly like a global FIFO; the fair
	// scheduler's soft concurrency shares split Workers.
	QueueDepth int
	// CacheEntries bounds the completed-result cache; 0 means 256.
	CacheEntries int
	// MaxJobs bounds the job table; 0 means 4096. Oldest terminal jobs
	// are forgotten first.
	MaxJobs int
	// Runner computes reports. Required.
	Runner Runner
	// KnownIDs, when non-empty, restricts Submit to these experiment
	// IDs; anything else fails with ErrUnknownExperiment.
	KnownIDs []string
	// Logger receives job lifecycle logs; nil means slog.Default().
	// Each job logs through a child logger carrying job_id, tenant,
	// experiment and (when the submission had one) trace_id.
	Logger *slog.Logger
	// Store, when non-nil, backs the result cache with durable storage:
	// misses read through to it before computing, computed results
	// write through to it, and WarmFromStore preloads the LRU at boot —
	// so cache hits survive process restarts.
	Store *store.Store
	// Quota is every tenant's admission budget (one token bucket per
	// tenant); the zero value disables admission control.
	Quota tenant.Quota
	// Recorder, when non-nil, turns on distributed tracing: every job
	// runs under a job.run span (parented to the submitting request's
	// span when there was one) and its spans land in this recorder.
	Recorder *obs.TraceRecorder
	// SlowTrace, when positive and Recorder is set, auto-captures slow
	// jobs: a job that ran (not a cache hit) for at least this long has
	// its trace pinned against eviction and its trace id logged.
	SlowTrace time.Duration
	// DefaultBudget is the node-wide adaptive budget for requests that
	// carry no "target_ci" param. Submit merges its params
	// (BudgetParams) into the request before keying it, so a defaulted
	// result caches under the key of the budget it ran; any explicit
	// target_ci, "0" included, wins. The zero value leaves requests as
	// they are.
	DefaultBudget adaptive.Budget
}

// Service schedules experiment jobs onto a bounded worker pool, fairly
// across tenants.
type Service struct {
	cfg     Config
	runner  Runner
	known   map[string]bool
	cache   *cache
	logger  *slog.Logger
	sched   *tenant.Scheduler[*job]
	limiter *tenant.Limiter
	// defaultParams is BudgetParams(cfg.DefaultBudget): nil when no
	// default applies.
	defaultParams map[string]string

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string // submission order, for bounded forgetting
	nextID  int64
	busy    int // workers currently executing a job
	stopped bool

	submitted, rejected, quotaRejected, nDone, nFailed, nCanceled int64

	// ranSeconds/ranJobs accumulate the wall-clock of jobs that actually
	// ran (cache hits and never-started jobs excluded); their ratio is
	// Stats.MeanJobSeconds, which the HTTP layer turns into Retry-After
	// hints under queue pressure.
	ranSeconds float64
	ranJobs    int64
}

// Errors surfaced to the transport layer.
var (
	ErrQueueFull         = errors.New("service: job queue is full")
	ErrStopped           = errors.New("service: stopped")
	ErrUnknownExperiment = errors.New("service: unknown experiment id")
	ErrNoSuchJob         = errors.New("service: no such job")
	ErrBadTenant         = errors.New("service: invalid tenant id")
	ErrBadParams         = errors.New("service: invalid request params")
	// ErrQuotaExceeded matches (via errors.Is) the *QuotaError returned
	// when a tenant's token bucket is empty.
	ErrQuotaExceeded = errors.New("service: tenant quota exceeded")
)

// QuotaError reports an admission-control rejection, carrying the
// per-tenant wait until the next token.
type QuotaError struct {
	Tenant     string
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("service: tenant %q over quota, retry in %s", e.Tenant, e.RetryAfter)
}

// Is makes errors.Is(err, ErrQuotaExceeded) work on QuotaErrors.
func (e *QuotaError) Is(target error) bool { return target == ErrQuotaExceeded }

// New builds a Service; Start must be called before jobs run.
func New(cfg Config) (*Service, error) {
	if cfg.Runner == nil {
		return nil, errors.New("service: Config.Runner is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 4096
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if err := cfg.DefaultBudget.Validate(); err != nil {
		return nil, fmt.Errorf("service: default budget: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:     cfg,
		runner:  cfg.Runner,
		logger:  cfg.Logger,
		cache:   newCache(cfg.CacheEntries),
		sched:   tenant.NewScheduler[*job](tenant.Options{Depth: cfg.QueueDepth, Workers: cfg.Workers}),
		limiter: tenant.NewLimiter(cfg.Quota),
		baseCtx: ctx,
		stop:    cancel,
		jobs:    make(map[string]*job),

		defaultParams: BudgetParams(cfg.DefaultBudget),
	}
	if len(cfg.KnownIDs) > 0 {
		s.known = make(map[string]bool, len(cfg.KnownIDs))
		for _, id := range cfg.KnownIDs {
			s.known[id] = true
		}
	}
	if cfg.Store != nil {
		s.cache.load = func(key Key) (string, bool) {
			payload, _, ok := cfg.Store.Get(string(key))
			return string(payload), ok
		}
	}
	return s, nil
}

// WarmFromStore preloads the in-memory LRU with the newest durable
// results, up to the cache capacity, and returns how many entries were
// loaded. Call it once at boot, before serving: reports computed by a
// previous process then answer as ordinary cache hits without touching
// the disk again.
func (s *Service) WarmFromStore() int {
	if s.cfg.Store == nil {
		return 0
	}
	entries := s.cfg.Store.EntriesByKind("result")
	if len(entries) > s.cache.max {
		entries = entries[:s.cache.max]
	}
	loaded := 0
	// Entries come newest-first; insert in reverse so the newest result
	// ends up most recently used and survives eviction the longest.
	for i := len(entries) - 1; i >= 0; i-- {
		payload, _, ok := s.cfg.Store.Get(entries[i].Key)
		if !ok {
			continue // quarantined between listing and read
		}
		s.cache.put(Key(entries[i].Key), string(payload))
		loaded++
	}
	if loaded > 0 {
		s.logger.Info("cache warmed from durable store", "entries", loaded)
	}
	return loaded
}

// Start launches the worker pool.
func (s *Service) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Stop cancels running jobs, marks queued ones canceled and waits for
// the workers to exit or ctx to expire.
func (s *Service) Stop(ctx context.Context) error {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	s.sched.Close()
	s.stop()

	workersDone := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(workersDone)
	}()
	select {
	case <-workersDone:
	case <-ctx.Done():
		return ctx.Err()
	}

	// Workers are gone; anything still queued will never run.
	for _, j := range s.sched.Drain() {
		s.finish(j, StateCanceled, false, ErrStopped.Error())
	}
	return nil
}

// Submit validates and enqueues a request, returning the queued job's
// snapshot. A full queue fails fast with ErrQueueFull so the transport
// can tell clients to back off.
func (s *Service) Submit(req Request) (JobView, error) {
	return s.SubmitCtx(context.Background(), req)
}

// SubmitCtx is Submit with submission-scoped context: the job adopts
// ctx's trace id (obs.TraceID) so its logs and snapshot correlate with
// the HTTP request that created it. ctx does not bound the job's
// lifetime — cancellation still goes through Cancel or Stop.
//
// The node's default budget (Config.DefaultBudget) joins a request
// without "target_ci" before the request is keyed, and a budget that
// BudgetFromParams refuses fails with ErrBadParams. The request's
// tenant is canonicalized (empty means the anonymous default tenant),
// charged against its admission quota, and enqueued on its own fair
// queue. Quota rejections return a *QuotaError; backlog rejections
// return ErrQueueFull. Only accepted jobs count as submitted.
func (s *Service) SubmitCtx(ctx context.Context, req Request) (JobView, error) {
	if s.known != nil && !s.known[req.ID] {
		return JobView{}, fmt.Errorf("%w: %q", ErrUnknownExperiment, req.ID)
	}
	if _, ok := req.Params["target_ci"]; !ok && s.defaultParams != nil {
		params := make(map[string]string, len(req.Params)+len(s.defaultParams))
		maps.Copy(params, req.Params)
		maps.Copy(params, s.defaultParams)
		req.Params = params
	}
	if _, err := BudgetFromParams(req.Params); err != nil {
		return JobView{}, fmt.Errorf("%w: %v", ErrBadParams, err)
	}
	tid, err := tenant.Canonicalize(req.Tenant)
	if err != nil {
		return JobView{}, fmt.Errorf("%w: %v", ErrBadTenant, err)
	}
	req.Tenant = tid
	if retry, ok := s.limiter.Allow(tid); !ok {
		s.mu.Lock()
		s.quotaRejected++
		s.mu.Unlock()
		metQuotaRejected.With(tid).Inc()
		s.logger.Warn("job rejected: tenant over quota",
			"tenant", tid, "experiment", req.ID, "retry_after", retry,
			"trace_id", obs.TraceID(ctx))
		return JobView{}, &QuotaError{Tenant: tid, RetryAfter: retry}
	}

	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return JobView{}, ErrStopped
	}
	s.nextID++
	jctx, cancel := context.WithCancel(s.baseCtx)
	j := &job{
		id:        fmt.Sprintf("j%08d", s.nextID),
		req:       req,
		key:       CanonicalKey(req),
		traceID:   obs.TraceID(ctx),
		parent:    obs.ActiveSpan(ctx).SpanContext(),
		ctx:       jctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		signal:    obs.NewSignal(),
		state:     StateQueued,
		submitted: time.Now(),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()

	// Snapshot before a worker can see the job: the caller gets the job
	// as submitted, and nothing after Enqueue reads j's mutable fields,
	// which the worker writes under s.mu.
	view := s.snapshot(j)
	if err := s.sched.Enqueue(tid, j); err != nil {
		s.mu.Lock()
		s.rejected++
		delete(s.jobs, j.id)
		if i := slices.Index(s.order, j.id); i >= 0 {
			s.order = slices.Delete(s.order, i, i+1)
		}
		s.mu.Unlock()
		cancel()
		s.logger.Warn("job rejected: queue full",
			"tenant", tid, "experiment", req.ID, "error", err,
			"trace_id", obs.TraceID(ctx))
		if errors.Is(err, tenant.ErrClosed) {
			return JobView{}, ErrStopped
		}
		return JobView{}, ErrQueueFull
	}
	s.mu.Lock()
	s.submitted++
	s.forgetOldLocked()
	s.mu.Unlock()
	metTenantJobs.With(tid).Inc()
	s.logger.Debug("job queued",
		"job_id", j.id, "tenant", tid, "experiment", j.req.ID, "trace_id", view.TraceID)
	return view, nil
}

// Job returns a snapshot by ID.
func (s *Service) Job(id string) (JobView, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, ErrNoSuchJob
	}
	return s.snapshot(j), nil
}

// Cancel cancels a job. Queued jobs flip to canceled immediately and
// leave the tenant scheduler, so they stop counting toward the queue
// depth and the tenant's backlog; running jobs have their context
// cancelled and reach the canceled state when the running experiment
// notices. Cancelling a terminal job is a no-op.
func (s *Service) Cancel(id string) (JobView, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobView{}, ErrNoSuchJob
	}
	queued := j.state == StateQueued
	if queued {
		j.state = StateCanceled
		j.errMsg = "canceled before start"
		j.finished = time.Now()
		s.nCanceled++
		close(j.done)
	}
	s.mu.Unlock()
	if queued {
		// A worker that dequeued the job already skips it in run.
		s.sched.Remove(j.req.Tenant, func(q *job) bool { return q == j })
	}
	j.cancel()
	j.signal.Raise()
	return s.snapshot(j), nil
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (s *Service) Wait(ctx context.Context, id string) (JobView, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, ErrNoSuchJob
	}
	select {
	case <-j.done:
		return s.snapshot(j), nil
	case <-ctx.Done():
		return s.snapshot(j), ctx.Err()
	}
}

// Watch streams snapshots of a job until it reaches a terminal state,
// the watcher's ctx ends, or the service stops. The returned channel
// is closed after the final (terminal) snapshot; intermediate
// snapshots are coalesced latest-wins, at most one per minInterval
// (0 means every update), so thousands of watchers cost one goroutine
// each and no polling anywhere. The first snapshot arrives
// immediately, and progress is monotonic across snapshots because the
// underlying tracker only counts up.
func (s *Service) Watch(ctx context.Context, id string, minInterval time.Duration) (<-chan JobView, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNoSuchJob
	}
	ch := make(chan JobView, 1)
	go func() {
		defer close(ch)
		sub, cancelSub := j.signal.Subscribe()
		defer cancelSub()
		// send coalesces latest-wins into the 1-buffered channel: a
		// slow reader sees fewer, fresher snapshots, never stale ones.
		send := func(jv JobView) {
			for {
				select {
				case ch <- jv:
					return
				default:
					select {
					case <-ch:
					default:
					}
				}
			}
		}
		last := s.snapshot(j)
		send(last)
		for !last.State.Terminal() {
			select {
			case <-ctx.Done():
				return
			case <-s.baseCtx.Done():
				return
			case <-j.done:
			case <-sub:
				if minInterval > 0 {
					pause := time.NewTimer(minInterval)
					select {
					case <-ctx.Done():
						pause.Stop()
						return
					case <-j.done: // flush the terminal state promptly
						pause.Stop()
					case <-pause.C:
					}
				}
			}
			last = s.snapshot(j)
			send(last)
		}
	}()
	return ch, nil
}

// Result returns a completed report by cache key, falling through to
// the durable store — results computed before the last restart stay
// addressable even when the LRU has moved on.
func (s *Service) Result(key Key) (string, bool) {
	if val, ok := s.cache.get(key); ok {
		return val, true
	}
	if s.cache.load != nil {
		if val, ok := s.cache.load(key); ok {
			s.cache.put(key, val)
			return val, true
		}
	}
	return "", false
}

// Tenants lists scheduler snapshots for every tenant with queued or
// running work, sorted by id.
func (s *Service) Tenants() []tenant.Snapshot {
	return s.sched.Depths()
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Submitted:     s.submitted,
		Rejected:      s.rejected,
		QuotaRejected: s.quotaRejected,
		Done:          s.nDone,
		Failed:        s.nFailed,
		Canceled:      s.nCanceled,
		QueueCapacity: s.cfg.QueueDepth,
		Workers:       s.cfg.Workers,
		BusyWorkers:   s.busy,
	}
	if s.ranJobs > 0 {
		st.MeanJobSeconds = s.ranSeconds / float64(s.ranJobs)
	}
	s.mu.Unlock()
	st.QueueDepth = s.sched.Len()
	st.ActiveTenants = s.sched.Active()
	st.CacheEntries = s.cache.len()
	st.CacheHits = s.cache.stats.hits.Load()
	st.CacheDiskHits = s.cache.stats.diskHits.Load()
	st.CacheCoalesced = s.cache.stats.coalesced.Load()
	st.CacheMisses = s.cache.stats.misses.Load()
	st.CacheEvictions = s.cache.stats.evictions.Load()
	if looked := st.CacheHits + st.CacheMisses; looked > 0 {
		st.CacheHitRatio = float64(st.CacheHits) / float64(looked)
	}
	if s.cfg.Store != nil {
		ss := s.cfg.Store.Stats()
		st.Store = &ss
	}
	return st
}

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		j, tid, schedWait, ok := s.sched.DequeueTimed(s.baseCtx)
		if !ok {
			return
		}
		s.mu.Lock()
		s.busy++
		s.mu.Unlock()
		s.run(j, schedWait)
		s.mu.Lock()
		s.busy--
		s.mu.Unlock()
		s.sched.Done(tid)
	}
}

// run executes one job through the single-flight cache, under a
// job-scoped logger, progress tracker and (when tracing) a job.run
// span backdated to submission. schedWait is the fair-queue portion of
// the job's queue wait, reported by the scheduler.
func (s *Service) run(j *job, schedWait time.Duration) {
	s.mu.Lock()
	if j.state != StateQueued { // cancelled while waiting
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.tracker = obs.NewTracker()
	s.mu.Unlock()
	j.signal.Raise()

	tid := j.req.Tenant
	logger := s.logger.With("job_id", j.id, "tenant", tid, "experiment", j.req.ID)
	if j.traceID != "" {
		logger = logger.With("trace_id", j.traceID)
	}
	ctx := obs.WithLogger(j.ctx, logger)
	ctx = obs.WithTraceID(ctx, j.traceID)
	if s.cfg.Recorder != nil {
		ctx = obs.WithRecorder(ctx, s.cfg.Recorder)
		if j.parent.TraceID != "" {
			ctx = obs.WithSpanParent(ctx, j.parent)
		}
	}
	ctx = obs.WithProgress(ctx, obs.NotifyProgress(j.tracker, j.signal))

	ctx, jobSpan := obs.StartSpan(ctx, "job.run")
	jobSpan.SetStart(j.submitted) // the job's story starts at submission
	jobSpan.SetAttr("job_id", j.id).SetAttr("tenant", tid).SetAttr("experiment", j.req.ID)
	if j.traceID == "" && jobSpan.Recording() {
		// Direct SubmitCtx callers may not carry a trace id; adopt the
		// span's so the job view and logs can name the recorded trace.
		s.mu.Lock()
		j.traceID = jobSpan.TraceID()
		s.mu.Unlock()
		logger = logger.With("trace_id", j.traceID)
	}

	wait := j.started.Sub(j.submitted)
	metQueueWait.Observe(wait.Seconds())
	metTenantQueueWait.With(tid).Observe(wait.Seconds())
	obs.RecordSpan(ctx, "queue.wait", j.submitted, j.started,
		obs.Attr{Key: "tenant", Value: tid},
		obs.Attr{Key: "sched_wait", Value: schedWait.String()})
	logger.Info("job started", "queue_wait", wait, "sched_wait", schedWait)

	val, hit, err := s.cache.do(ctx, j.key, func() (string, error) {
		dctx, span := obs.StartSpan(ctx, "driver.run")
		defer span.End()
		return s.runner(dctx, j.req)
	})
	if err == nil && !hit && s.cfg.Store != nil {
		// Write-through: a freshly computed result becomes durable before
		// the job is reported done. Persistence failure degrades to an
		// in-memory-only cache entry rather than failing the job.
		if perr := s.cfg.Store.Put(string(j.key), []byte(val), store.Meta{
			Kind: "result", Experiment: j.req.ID, Seed: j.req.Seed,
		}); perr != nil {
			logger.Warn("result not persisted", "error", perr)
		}
	}
	var st State
	var msg string
	switch {
	case err == nil:
		st = StateDone
	case j.ctx.Err() != nil:
		st, msg = StateCanceled, context.Cause(j.ctx).Error()
	default:
		st, msg = StateFailed, err.Error()
	}
	// End the job span before finish closes the done channel, so a
	// watcher that fetches the trace on completion sees it whole.
	jobSpan.SetAttr("state", string(st)).SetAttr("cache_hit", strconv.FormatBool(hit && st == StateDone))
	jobSpan.End()
	// Pin a slow trace before finish closes the done channel too, so a
	// watcher sees it pinned on completion. Once the job is queued,
	// j.started and j.traceID are written only by this goroutine.
	if slow := time.Since(j.started); s.cfg.Recorder != nil && s.cfg.SlowTrace > 0 && !hit &&
		slow >= s.cfg.SlowTrace && j.traceID != "" {
		if s.cfg.Recorder.Pin(j.traceID) {
			logger.Warn("slow job: trace pinned",
				"duration", slow, "threshold", s.cfg.SlowTrace)
		}
	}
	s.finish(j, st, hit && st == StateDone, msg)

	s.mu.Lock()
	state, errMsg, elapsed := j.state, j.errMsg, j.finished.Sub(j.started)
	s.mu.Unlock()
	switch state {
	case StateDone:
		logger.Info("job done", "duration", elapsed, "cache_hit", hit)
	case StateCanceled:
		logger.Info("job canceled", "duration", elapsed, "cause", errMsg)
	default:
		logger.Error("job failed", "duration", elapsed, "error", errMsg)
	}
}

// finish moves a job to a terminal state exactly once.
func (s *Service) finish(j *job, st State, hit bool, msg string) {
	s.mu.Lock()
	if j.state.Terminal() {
		s.mu.Unlock()
		return
	}
	j.state = st
	j.cacheHit = hit
	j.errMsg = msg
	j.finished = time.Now()
	switch st {
	case StateDone:
		s.nDone++
	case StateFailed:
		s.nFailed++
	case StateCanceled:
		s.nCanceled++
	}
	if !j.started.IsZero() {
		d := j.finished.Sub(j.started).Seconds()
		metJobDuration.Observe(d)
		if !hit {
			s.ranSeconds += d
			s.ranJobs++
		}
	}
	close(j.done)
	s.mu.Unlock()
	j.cancel()
	j.signal.Raise()
}

// forgetOldLocked drops the oldest terminal jobs beyond the MaxJobs
// bound so the job table cannot grow without limit.
func (s *Service) forgetOldLocked() {
	if len(s.order) <= s.cfg.MaxJobs {
		return
	}
	kept := s.order[:0]
	excess := len(s.order) - s.cfg.MaxJobs
	for _, id := range s.order {
		j, ok := s.jobs[id]
		if excess > 0 && (!ok || j.state.Terminal()) {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// snapshot copies a job into an immutable view. Progress appears once
// the job has reached a worker; a terminal snapshot freezes elapsed at
// the started→finished interval instead of the tracker's still-running
// clock.
func (s *Service) snapshot(j *job) JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	jv := JobView{
		ID:       j.id,
		Tenant:   j.req.Tenant,
		Request:  j.req,
		Key:      j.key,
		State:    j.state,
		CacheHit: j.cacheHit,
		Error:    j.errMsg,
		TraceID:  j.traceID,
		Queued:   j.submitted,
		Started:  j.started,
		Finished: j.finished,
	}
	if j.tracker != nil {
		snap := j.tracker.Snapshot()
		elapsed := snap.Elapsed
		if !j.finished.IsZero() {
			elapsed = j.finished.Sub(j.started)
		}
		jv.Progress = &ProgressInfo{
			DoneTrials:     snap.Done,
			TotalTrials:    snap.Total,
			ElapsedSeconds: elapsed.Seconds(),
		}
	}
	return jv
}
