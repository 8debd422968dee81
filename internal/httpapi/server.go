// Package httpapi is cogmimod's HTTP transport: the v1 JSON API over a
// service.Service, the shard and campaign endpoints, the Prometheus
// exposition and the observability middleware. It lives outside
// cmd/cogmimod so tools (internal/tools/loadgen) and tests can run the
// real stack in-process against httptest servers.
//
// Multi-tenancy: callers name themselves with the X-Tenant-Id header
// (or a "tenant" field in the submit body); anonymous requests map to
// the default tenant. The id rides on the job through scheduling,
// logs and metrics. A quota rejection answers 429 with a Retry-After
// derived from that tenant's own token bucket; a full queue answers 429
// with one priced from the shared backlog.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/tenant"
)

// SubmitRequest is the POST /v1/experiments body: a service.Request
// plus transport-level options.
type SubmitRequest struct {
	service.Request
	// Wait blocks the response until the job finishes; cancellation of
	// the HTTP request (client disconnect, timeout) cancels the job.
	Wait bool `json:"wait,omitempty"`
}

// JobResponse is the JSON envelope for job state; Report is attached
// once the job is done.
type JobResponse struct {
	service.JobView
	Report string `json:"report,omitempty"`
}

// Config carries the transport options main resolves from flags.
type Config struct {
	// Logger receives access logs; nil means slog.Default().
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// Draining, when set and true, flips /healthz to 503 and makes the
	// shard endpoint refuse new work — the signal remote coordinators
	// use to stop routing to a node that is shutting down.
	Draining *atomic.Bool
	// NodeID tags shard results served by this node; defaults to the
	// listen address in main.
	NodeID string
	// ShardWorkers caps goroutines per shard execution; 0 = GOMAXPROCS.
	ShardWorkers int
	// Campaigns serves the /v1/campaigns endpoints; nil (no -data-dir)
	// makes them answer 503, since campaigns without durable storage
	// could not keep their crash-safety promise.
	Campaigns *campaign.Manager
	// Recorder, when non-nil, enables distributed tracing: /v1 requests
	// run under recording http.request spans, and GET /v1/traces/{id} /
	// GET /debug/traces serve the merged timelines. Nil keeps tracing
	// off with near-zero per-request cost.
	Recorder *obs.TraceRecorder
}

// draining reports the drain state, tolerating a nil flag (tests).
func (c Config) draining() bool {
	return c.Draining != nil && c.Draining.Load()
}

// requestTenant resolves the effective tenant of a submission: an
// explicit body field wins, then the X-Tenant-Id header, and an
// anonymous request falls through to the default tenant inside the
// service. Validation happens in the service so all transports share
// one rule.
func requestTenant(r *http.Request, body string) string {
	if body != "" {
		return body
	}
	return r.Header.Get(tenant.Header)
}

// NewMux wires the service into the v1 JSON API, wrapped in the
// observability middleware (trace ids, access logs, request spans).
func NewMux(svc *service.Service, cfg Config) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/experiments", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
			httpError(w, bodyErrorStatus(err), fmt.Sprintf("bad request body: %v", err))
			return
		}
		if strings.TrimSpace(req.ID) == "" {
			httpError(w, http.StatusBadRequest, "missing experiment id")
			return
		}
		req.Tenant = requestTenant(r, req.Tenant)
		jv, err := svc.SubmitCtx(r.Context(), req.Request)
		var qe *service.QuotaError
		switch {
		case errors.Is(err, service.ErrUnknownExperiment),
			errors.Is(err, service.ErrBadTenant),
			errors.Is(err, service.ErrBadParams):
			httpError(w, http.StatusBadRequest, err.Error())
			return
		case errors.As(err, &qe):
			w.Header().Set("Retry-After", retrySeconds(qe.RetryAfter))
			httpError(w, http.StatusTooManyRequests, err.Error())
			return
		case errors.Is(err, service.ErrQueueFull):
			w.Header().Set("Retry-After", retryAfterHint(svc.Stats()))
			httpError(w, http.StatusTooManyRequests, err.Error())
			return
		case errors.Is(err, service.ErrStopped):
			httpError(w, http.StatusServiceUnavailable, err.Error())
			return
		case err != nil:
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if !req.Wait {
			writeJSON(w, http.StatusAccepted, JobResponse{JobView: jv})
			return
		}
		done, err := svc.Wait(r.Context(), jv.ID)
		if err != nil {
			// The waiting client went away: release the worker.
			svc.Cancel(jv.ID)
			httpError(w, http.StatusServiceUnavailable, "request cancelled while waiting")
			return
		}
		writeJSON(w, statusFor(done), withReport(svc, done))
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		jv, err := svc.Job(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, withReport(svc, jv))
	})

	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		serveJobEvents(svc, w, r)
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		jv, err := svc.Cancel(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, JobResponse{JobView: jv})
	})

	mux.HandleFunc("GET /v1/results/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := service.Key(r.PathValue("key"))
		_, span := obs.StartSpan(r.Context(), "cache.lookup")
		report, ok := svc.Result(key)
		span.End()
		if !ok {
			httpError(w, http.StatusNotFound, "no result for key")
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"key": string(key), "report": report})
	})

	mux.HandleFunc("GET /v1/experiments", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"experiments": service.KnownExperimentIDs()})
	})

	mux.HandleFunc("GET /v1/kernels", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"kernels": sim.Kernels()})
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Stats())
	})

	mux.HandleFunc("GET /v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"tenants": svc.Tenants()})
	})

	mux.HandleFunc("POST /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Campaigns == nil {
			httpError(w, http.StatusServiceUnavailable, "campaigns need durable storage: start cogmimod with -data-dir")
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
		if err != nil {
			httpError(w, bodyErrorStatus(err), fmt.Sprintf("reading spec: %v", err))
			return
		}
		spec, err := campaign.ParseSpec(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		id, started, err := cfg.Campaigns.Submit(spec)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		// Idempotent by content address: resubmitting a spec returns the
		// existing campaign instead of starting a duplicate.
		code := http.StatusAccepted
		if !started {
			code = http.StatusOK
		}
		st, _ := cfg.Campaigns.Get(id)
		writeJSON(w, code, map[string]any{
			"campaign": id, "started": started, "status": st.Status,
		})
	})

	mux.HandleFunc("GET /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Campaigns == nil {
			httpError(w, http.StatusServiceUnavailable, "campaigns need durable storage: start cogmimod with -data-dir")
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"campaigns": cfg.Campaigns.List()})
	})

	mux.HandleFunc("GET /v1/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Campaigns == nil {
			httpError(w, http.StatusServiceUnavailable, "campaigns need durable storage: start cogmimod with -data-dir")
			return
		}
		st, ok := cfg.Campaigns.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such campaign")
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /v1/traces/{id}", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Recorder == nil {
			httpError(w, http.StatusServiceUnavailable, "tracing disabled: start cogmimod with -trace-buffer > 0")
			return
		}
		tr, ok := cfg.Recorder.Trace(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such trace (evicted or never recorded)")
			return
		}
		if r.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Disposition",
				fmt.Sprintf("attachment; filename=%q", "trace-"+tr.TraceID+".json"))
			if err := obs.WriteChromeTrace(w, tr); err != nil {
				obs.Logger(r.Context()).Warn("chrome trace export failed", "error", err)
			}
			return
		}
		writeJSON(w, http.StatusOK, tr)
	})

	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Recorder == nil {
			httpError(w, http.StatusServiceUnavailable, "tracing disabled: start cogmimod with -trace-buffer > 0")
			return
		}
		limit := 0
		if n := r.URL.Query().Get("n"); n != "" {
			limit, _ = strconv.Atoi(n)
		}
		writeJSON(w, http.StatusOK, map[string]any{"traces": cfg.Recorder.Recent(limit)})
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		st := svc.Stats()
		body := map[string]any{
			"status":         "ok",
			"version":        buildVersion(),
			"go_version":     runtime.Version(),
			"queue_depth":    st.QueueDepth,
			"queue_capacity": st.QueueCapacity,
			"active_tenants": st.ActiveTenants,
			"workers": map[string]int{
				"total": st.Workers,
				"busy":  st.BusyWorkers,
				"idle":  st.Workers - st.BusyWorkers,
			},
		}
		code := http.StatusOK
		if cfg.draining() {
			body["status"] = "draining"
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, body)
	})

	mux.HandleFunc("POST /v1/shards", func(w http.ResponseWriter, r *http.Request) {
		if cfg.draining() {
			httpError(w, http.StatusServiceUnavailable, "draining: not accepting shards")
			return
		}
		var req cluster.ShardRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
			httpError(w, bodyErrorStatus(err), fmt.Sprintf("bad shard body: %v", err))
			return
		}
		if err := req.Validate(); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		res, err := cluster.ExecuteShard(r.Context(), cfg.NodeID, cfg.ShardWorkers, req)
		if err != nil {
			if r.Context().Err() != nil {
				// Coordinator cancelled (aborted run or disconnect);
				// nobody reads the response.
				httpError(w, http.StatusServiceUnavailable, "shard cancelled")
				return
			}
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, res)
	})

	mux.HandleFunc("GET /metrics/prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.Default.WritePrometheus(w)
		statsRegistry(svc.Stats()).WritePrometheus(w)
	})

	if cfg.Pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}

	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	return withObs(logger, cfg.Recorder, mux)
}

// buildVersion resolves this binary's module version from the embedded
// build info: the tagged version when built from a module, else the VCS
// revision, else "(devel)".
func buildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	v := bi.Main.Version
	if v == "" || v == "(devel)" {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				if len(s.Value) > 12 {
					return s.Value[:12]
				}
				return s.Value
			}
		}
	}
	if v == "" {
		return "(devel)"
	}
	return v
}

// retrySeconds renders a duration as a Retry-After header value,
// rounded up and floored at 1s — a zero hint would invite an immediate
// identical retry.
func retrySeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// retryAfterHint estimates when a 429'd client should come back: the
// queued work ahead of it (plus its own job) divided across the worker
// pool, priced at the observed mean job duration. Before any job has
// run — or if the arithmetic degenerates — the old fixed hint of 1s is
// kept, and the estimate is clamped to [1s, 60s] so a pathological
// backlog cannot tell clients to go away for an hour.
func retryAfterHint(st service.Stats) string {
	mean := st.MeanJobSeconds
	if mean <= 0 || math.IsNaN(mean) || math.IsInf(mean, 0) {
		return "1"
	}
	workers := st.Workers
	if workers < 1 {
		workers = 1
	}
	secs := math.Ceil(mean * float64(st.QueueDepth+1) / float64(workers))
	if secs < 1 {
		secs = 1
	} else if secs > 60 {
		secs = 60
	}
	return strconv.Itoa(int(secs))
}

// httpDuration times full request handling, split by method.
var httpDuration = obs.Default.HistogramVec("cogmimod_http_request_duration_seconds",
	"HTTP request handling time by method.", "method", nil)

// statusWriter captures the response code for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so SSE streaming works through
// the middleware.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// traceEligible decides whether a request path gets a recording span.
// Only the v1 API is traced; /v1/shards is excluded because a shard's
// trace belongs to the coordinating node (the worker records locally
// and ships spans back in the result), and /v1/traces because tracing
// the trace reader only fills the recorder with noise.
func traceEligible(path string) bool {
	if !strings.HasPrefix(path, "/v1/") {
		return false
	}
	return path != "/v1/shards" && !strings.HasPrefix(path, "/v1/traces")
}

// withObs is the observability middleware: it assigns every request a
// trace id (accepting a caller-supplied X-Trace-Id), echoes it in the
// X-Trace-Id response header, attaches a request-scoped logger to the
// context, times the request as an "http.request" span and emits an
// access log line. With a recorder, eligible requests get a recording
// root span (method/path/status attributes) that downstream job and
// shard spans parent to. Scrape and probe endpoints log at debug so a
// monitoring loop does not drown the job history.
func withObs(logger *slog.Logger, rec *obs.TraceRecorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		traceID := r.Header.Get("X-Trace-Id")
		if traceID == "" {
			traceID = obs.NewTraceID()
		}
		w.Header().Set("X-Trace-Id", traceID)

		reqLogger := logger.With("trace_id", traceID)
		ctx := obs.WithTraceID(r.Context(), traceID)
		ctx = obs.WithLogger(ctx, reqLogger)
		if rec != nil && traceEligible(r.URL.Path) {
			ctx = obs.WithRecorder(ctx, rec)
		}
		ctx, span := obs.StartSpan(ctx, "http.request")
		span.SetAttr("method", r.Method).SetAttr("path", r.URL.Path)

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		elapsed := time.Since(start)

		httpDuration.With(r.Method).Observe(elapsed.Seconds())
		span.SetAttr("status", strconv.Itoa(sw.status))
		span.End()
		level := slog.LevelInfo
		if r.Method == http.MethodGet && (r.URL.Path == "/healthz" ||
			strings.HasPrefix(r.URL.Path, "/metrics")) {
			level = slog.LevelDebug
		}
		reqLogger.Log(ctx, level, "http request",
			"method", r.Method, "path", r.URL.Path,
			"status", sw.status, "duration", elapsed)
	})
}

// withReport attaches the cached report to terminal done jobs.
func withReport(svc *service.Service, jv service.JobView) JobResponse {
	resp := JobResponse{JobView: jv}
	if jv.State == service.StateDone {
		if report, ok := svc.Result(jv.Key); ok {
			resp.Report = report
		}
	}
	return resp
}

// statusFor maps a terminal job state to a response code.
func statusFor(jv service.JobView) int {
	switch jv.State {
	case service.StateDone:
		return http.StatusOK
	case service.StateCanceled:
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// maxBody caps every request body; a larger one answers 413.
const maxBody = 1 << 20

// bodyErrorStatus maps a body read or decode error to its status: 413
// when the body overflowed maxBody, 400 otherwise.
func bodyErrorStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// processStart anchors cogmimod_uptime_seconds.
var processStart = time.Now()

// statsRegistry renders one Stats snapshot as this server's service and
// store families in a throwaway registry. Each value is the /v1/stats
// field named in its help text, read once per scrape, so the two
// surfaces cannot disagree and servers sharing a process do not mix
// their counts. Store families appear only when a store backs the
// cache.
func statsRegistry(st service.Stats) *obs.Registry {
	r := obs.NewRegistry()
	counter := func(name, help string, n int64) { r.Counter(name, help).Add(n) }
	gauge := func(name, help string, v float64) { r.Gauge(name, help).Set(v) }

	jobs := r.CounterVec("cogmimod_jobs_total",
		"Jobs by lifecycle event: jobs_submitted (past the quota, queue-full rejections included), jobs_rejected (queue full) and the terminal jobs_done, jobs_failed, jobs_canceled.",
		"status")
	jobs.With("submitted").Add(st.Submitted)
	jobs.With("rejected").Add(st.Rejected)
	jobs.With(string(service.StateDone)).Add(st.Done)
	jobs.With(string(service.StateFailed)).Add(st.Failed)
	jobs.With(string(service.StateCanceled)).Add(st.Canceled)
	gauge("cogmimod_queue_depth", "Jobs waiting for a worker (queue_depth).", float64(st.QueueDepth))
	gauge("cogmimod_queue_capacity", "Queue bound before submissions are rejected with 429 (queue_capacity).", float64(st.QueueCapacity))
	gauge("cogmimod_workers", "Worker pool size (workers).", float64(st.Workers))
	gauge("cogmimod_busy_workers", "Workers currently executing a job (busy_workers).", float64(st.BusyWorkers))
	gauge("cogmimod_active_tenants", "Tenants with queued or running jobs (active_tenants).", float64(st.ActiveTenants))
	gauge("cogmimod_cache_entries", "Completed results currently cached (cache_entries).", float64(st.CacheEntries))
	counter("cogmimod_cache_hits_total", "Result-cache lookups served from a completed entry (cache_hits).", st.CacheHits)
	counter("cogmimod_cache_disk_hits_total", "Result-cache lookups served from the durable store instead of computing (cache_disk_hits).", st.CacheDiskHits)
	counter("cogmimod_cache_coalesced_total", "Result-cache lookups coalesced onto another caller's in-flight computation (cache_coalesced).", st.CacheCoalesced)
	counter("cogmimod_cache_misses_total", "Result-cache lookups that had to compute (cache_misses).", st.CacheMisses)
	counter("cogmimod_cache_evictions_total", "Completed results evicted by the LRU bound (cache_evictions).", st.CacheEvictions)
	gauge("cogmimod_cache_hit_ratio", "Cache hits over completed lookups, hits+misses (cache_hit_ratio).", st.CacheHitRatio)
	if ss := st.Store; ss != nil {
		counter("cogmimod_store_puts_total", "Entries durably written, atomic temp+rename+fsync (store.puts).", ss.Puts)
		gets := r.CounterVec("cogmimod_store_gets_total",
			"Store reads by outcome: hit (store.hits) or miss (store.misses); corrupt entries count as misses.",
			"result")
		gets.With("hit").Add(ss.Hits)
		gets.With("miss").Add(ss.Misses)
		counter("cogmimod_store_quarantined_total", "Corrupt manifests, index lines and objects moved to quarantine instead of panicking (store.quarantined).", ss.Quarantined)
		counter("cogmimod_store_gc_evictions_total", "Entries evicted by the size-bounded GC (store.evictions).", ss.Evictions)
		gauge("cogmimod_store_bytes", "Total object bytes in the durable store (store.bytes).", float64(ss.Bytes))
		gauge("cogmimod_store_entries", "Entries indexed by the durable store (store.entries).", float64(ss.Entries))
	}
	gauge("cogmimod_uptime_seconds", "Seconds since process start.", time.Since(processStart).Seconds())
	r.InfoGauge("cogmimod_build_info",
		"Build metadata; value is always 1, the information is in the labels.",
		obs.Label{Name: "version", Value: buildVersion()},
		obs.Label{Name: "go_version", Value: runtime.Version()}).Set(1)
	return r
}
