// Command cogmimod serves the paper's experiments as a long-lived
// simulation service: a bounded job queue in front of a worker pool,
// with a content-addressed result cache so identical requests are
// answered in microseconds.
//
// Usage:
//
//	cogmimod -addr :8345 -workers 4 -queue 64 -cache 256
//	cogmimod -data-dir /var/lib/cogmimod -store-max-bytes 268435456
//	cogmimod -log-level debug -log-json -pprof
//	cogmimod -addr :8345 -peers localhost:8346,localhost:8347
//
// With -peers the node becomes a cluster coordinator: kernel-based
// Monte-Carlo experiments split each chunk range into one shard per
// ready worker node (each just a plain cogmimod), retry a failed shard
// on another node, run it locally when no node is ready, and merge to
// results bit-identical to a local run; see internal/cluster.
//
// With -data-dir the result cache is backed by a durable
// content-addressed store (internal/store): computed reports survive
// restarts and are served as cache hits, the in-memory LRU is warmed
// from disk at boot, and the campaign endpoints come alive — campaigns
// checkpoint per Monte-Carlo chunk and any campaign interrupted by a
// crash (even SIGKILL) resumes on the next boot, byte-identically; see
// internal/campaign.
//
// The server is multi-tenant: callers identify themselves with the
// X-Tenant-Id header (anonymous requests map to the "default" tenant)
// and jobs are dispatched fairly, in rotation across tenants, instead
// of global FIFO, so one tenant's backlog cannot starve another. -quota-
// rate/-quota-burst add per-tenant token-bucket admission control;
// over-quota submissions answer 429 with a Retry-After derived from
// that tenant's own budget. Scheduling only reorders jobs — reports
// stay bit-identical regardless of tenancy.
//
// API (JSON; see internal/httpapi):
//
//	POST   /v1/experiments       {"id":"fig6a","seed":1,"quick":true,"wait":true}
//	GET    /v1/experiments       list runnable experiment IDs
//	GET    /v1/jobs/{id}         job state, timestamps and live progress
//	GET    /v1/jobs/{id}/events  server-sent events: progress stream until completion
//	DELETE /v1/jobs/{id}         cancel a job
//	GET    /v1/results/{key}     fetch a cached report by content key
//	POST   /v1/campaigns         submit a campaign spec (requires -data-dir)
//	GET    /v1/campaigns         list campaigns, live and stored
//	GET    /v1/campaigns/{id}    campaign status with per-experiment progress
//	GET    /v1/stats             service counters as JSON
//	GET    /v1/tenants           per-tenant queue/running snapshots
//	POST   /v1/shards            execute a Monte-Carlo chunk range (worker side)
//	GET    /v1/traces/{id}       merged distributed trace; ?format=chrome for
//	                             a chrome://tracing / Perfetto file
//	GET    /debug/traces         recent trace index (id, root, duration)
//	GET    /healthz              liveness probe with queue/tenant/worker detail;
//	                             503 {"status":"draining"} during shutdown
//	GET    /metrics/prom         Prometheus text exposition; service and store
//	                             values equal their /v1/stats fields
//	GET    /debug/pprof/         profiling endpoints (with -pprof)
//
// Every response carries an X-Trace-Id header (generated, or echoed
// from the request); the same id tags all log lines of the request and
// of any job it submitted. With -trace-buffer > 0 (the default) the id
// also names a structural trace: request, queue wait, driver and — in
// coordinator mode — per-worker shard spans merge into one timeline
// served by GET /v1/traces/{id}. Jobs slower than -trace-slow get
// their trace pinned against eviction and a warning naming the id.
// A full -queue answers 429 with a Retry-After hint priced from the
// shared backlog; one tenant may fill the queue, and the fair rotation
// keeps the others from starving. SIGINT/SIGTERM drain the server
// gracefully: in-flight handlers get a shutdown grace period and
// running jobs are cancelled between sweep points.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/adaptive"
	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/tenant"
)

func main() {
	var (
		addr     = flag.String("addr", ":8345", "listen address")
		workers  = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 64, "job queue depth before 429s")
		cacheN   = flag.Int("cache", 256, "result cache entries")
		grace    = flag.Duration("grace", 10*time.Second, "shutdown grace period")
		drainFor = flag.Duration("drain", time.Second, "how long /healthz advertises draining (503) before the listener closes")
		logLevel = flag.String("log-level", "info", "log level: debug, info, warn or error")
		logJSON  = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		pprofOn  = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")

		dataDir  = flag.String("data-dir", "", "durable result store directory; empty keeps everything in memory")
		storeMax = flag.Int64("store-max-bytes", 256<<20, "size bound the store GC enforces over unprotected entries (0 = unbounded)")

		quotaRate  = flag.Float64("quota-rate", 0, "per-tenant admission rate in jobs/second (0 = no admission control)")
		quotaBurst = flag.Int("quota-burst", 0, "per-tenant burst budget (0 = derive from -quota-rate)")

		traceBuf  = flag.Int("trace-buffer", 256, "traces kept in the in-process recorder ring (0 disables tracing)")
		traceSlow = flag.Duration("trace-slow", 10*time.Second, "pin the trace of any job slower than this (0 = off; needs -trace-buffer > 0)")

		targetCI  = flag.Float64("target-ci", 0, "default adaptive stop for requests without budget params: target relative 95% CI half-width (0 = fixed budgets)")
		maxTrials = flag.Int("max-trials", 0, "default adaptive per-cell trial cap, at most 16777216 (required with -target-ci)")

		peers      = flag.String("peers", "", "comma-separated worker node addresses; enables coordinator mode")
		probeEvery = flag.Duration("probe-interval", 5*time.Second, "peer health probe interval in coordinator mode")
	)
	flag.Parse()

	logger, err := newLogger(*logLevel, *logJSON)
	if err != nil {
		fatal(err)
	}
	slog.SetDefault(logger)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	// The durable store opens first: corrupted entries are quarantined
	// during open, and everything downstream (cache, campaigns) treats
	// the handle as ready state.
	var st *store.Store
	if *dataDir != "" {
		var err error
		st, err = store.Open(store.Options{Dir: *dataDir, MaxBytes: *storeMax, Logger: logger})
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		stats := st.Stats()
		logger.Info("durable store open",
			"dir", *dataDir, "entries", stats.Entries, "bytes", stats.Bytes,
			"quarantined", stats.Quarantined)
	}

	// In coordinator mode every job's Monte-Carlo work fans out to the
	// peer nodes: the runner attaches a cluster coordinator to the job
	// context, and kernel-based experiments (sim.RunKernelCtx) shard
	// automatically — with bit-identical results, so a coordinator node
	// answers exactly what a standalone one would.
	runner := service.ExperimentRunner
	if *peers != "" {
		addrs := splitPeers(*peers)
		tr := &cluster.HTTPTransport{}
		reg := cluster.NewRegistry(tr, addrs...)
		go reg.Run(ctx, *probeEvery)
		co := cluster.NewCoordinator(tr, reg, cluster.Config{LocalFallback: true, LocalWorkers: *workers})
		runner = func(jctx context.Context, req service.Request) (string, error) {
			return service.ExperimentRunner(sim.WithExecutor(jctx, co), req)
		}
		logger.Info("coordinator mode", "peers", addrs)
	}
	// -target-ci/-max-trials set a node-wide default adaptive budget:
	// the service merges it into every request that carries no
	// target_ci before keying it, so defaulted results cache under the
	// budget they ran. It composes with coordinator mode — the
	// defaulted budget's chunk rounds still shard across peers.
	// service.New refuses a target without a trial cap.
	defBudget := adaptive.Budget{TargetRelCI: *targetCI, MaxTrials: *maxTrials}

	// The trace recorder is shared by the service (job/driver spans,
	// slow-job pinning) and the HTTP layer (request spans, the
	// /v1/traces endpoints). Nil keeps every span structureless: just
	// the histogram observation, no allocation.
	var recorder *obs.TraceRecorder
	if *traceBuf > 0 {
		recorder = obs.NewTraceRecorder(*traceBuf, 0)
		logger.Info("tracing on", "buffer", *traceBuf, "slow_threshold", *traceSlow)
	}

	svc, err := service.New(service.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		CacheEntries:  *cacheN,
		Runner:        runner,
		KnownIDs:      service.KnownExperimentIDs(),
		Logger:        logger,
		Store:         st,
		Quota:         tenant.Quota{Rate: *quotaRate, Burst: *quotaBurst},
		Recorder:      recorder,
		SlowTrace:     *traceSlow,
		DefaultBudget: defBudget,
	})
	if err != nil {
		fatal(err)
	}
	if defBudget.Enabled() {
		logger.Info("default adaptive budget", "target_ci", *targetCI, "max_trials", *maxTrials)
	}
	svc.WarmFromStore()
	svc.Start()
	if *quotaRate > 0 {
		logger.Info("per-tenant quotas on", "rate", *quotaRate, "burst", *quotaBurst)
	}

	// Campaigns need durability for their checkpoints; without -data-dir
	// the endpoints answer 503 instead of pretending to be crash-safe.
	var campaigns *campaign.Manager
	if st != nil {
		campaigns = campaign.NewManager(st, *workers, logger)
		if n := campaigns.ResumeAll(); n > 0 {
			logger.Info("resumed interrupted campaigns", "count", n)
		}
	}

	var draining atomic.Bool
	srv := &http.Server{
		Addr: *addr,
		Handler: httpapi.NewMux(svc, httpapi.Config{
			Logger:       logger,
			Pprof:        *pprofOn,
			Draining:     &draining,
			NodeID:       *addr,
			ShardWorkers: *workers,
			Campaigns:    campaigns,
			Recorder:     recorder,
		}),
		ReadHeaderTimeout: 5 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "pprof", *pprofOn)

	select {
	case <-ctx.Done():
		// Flip health to draining first and keep the listener up for a
		// beat: /healthz must answer 503 {"status":"draining"} so
		// coordinators and load balancers observe the drain and stop
		// routing here before the socket disappears. Shutdown closes
		// listeners immediately, so without this window the 503 would
		// be unreachable in practice.
		draining.Store(true)
		logger.Info("shutting down", "drain_window", *drainFor)
		select {
		case <-time.After(*drainFor):
		case err := <-errCh:
			if !errors.Is(err, http.ErrServerClosed) {
				fatal(err)
			}
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}

	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), *grace)
	defer cancelShutdown()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Error("shutdown", "error", err)
	}
	if campaigns != nil {
		// Interrupted campaigns keep their durable "running" state and
		// resume on the next boot.
		if err := campaigns.Stop(shutdownCtx); err != nil {
			logger.Error("campaign stop", "error", err)
		}
	}
	if err := svc.Stop(shutdownCtx); err != nil {
		logger.Error("service stop", "error", err)
	}
}

// splitPeers parses the -peers list, dropping empty entries so a
// trailing comma is harmless.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// newLogger builds the process logger on stderr at the given level.
func newLogger(level string, asJSON bool) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	if asJSON {
		h = slog.NewJSONHandler(os.Stderr, opts)
	} else {
		h = slog.NewTextHandler(os.Stderr, opts)
	}
	return slog.New(h), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cogmimod:", err)
	os.Exit(1)
}
