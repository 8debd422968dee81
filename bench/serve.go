package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/service"
)

// serveSys is the daemon as cogmimod builds it by default — workers =
// GOMAXPROCS, queue 64, cache 256, a 256-trace recorder — on a loopback
// listener, plus the benchmark's two-connection client.
type serveSys struct {
	svc    *service.Service
	srv    *httptest.Server
	client *http.Client
	warm   []string // report of each hot key, by hot index
}

func (s *serveSys) close() {
	s.srv.Close()
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.svc.Stop(ctx) // the pool is idle; a timeout only leaves goroutines to exit
}

// request is one generated POST /v1/experiments.
type request struct {
	id   string
	seed int64
	hot  int // hot-key index, or -1 for a miss
}

func (r request) body() []byte {
	b, _ := json.Marshal(map[string]any{"id": r.id, "seed": r.seed, "quick": true, "wait": true})
	return b
}

func hotRequest(sc ServeConfig, k int) request {
	return request{id: sc.HotIDs[k/sc.HotSeeds], seed: int64(k%sc.HotSeeds + 1), hot: k}
}

// outcome is one request's measurement.
type outcome struct {
	req       request
	lat, late time.Duration
	traced    bool
	size      int
	report    string
	queueWait time.Duration
	run       time.Duration
	err       error
}

// send posts one request and validates the transport-level answer.
func send(ctx context.Context, sys *serveSys, req request, tamper func([]byte) []byte) (httpapi.JobResponse, int, error) {
	var jr httpapi.JobResponse
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, sys.srv.URL+"/v1/experiments", bytes.NewReader(req.body()))
	if err != nil {
		return jr, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := sys.client.Do(hreq)
	if err != nil {
		return jr, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return jr, len(body), err
	}
	if tamper != nil {
		body = tamper(body)
	}
	if resp.StatusCode != http.StatusOK {
		return jr, len(body), fmt.Errorf("%s %d: %s", req.id, resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &jr); err != nil {
		return jr, len(body), fmt.Errorf("%s: decoding response: %w", req.id, err)
	}
	if jr.State != service.StateDone || jr.Report == "" {
		return jr, len(body), fmt.Errorf("%s: job %s in state %s without a report", req.id, jr.ID, jr.State)
	}
	return jr, len(body), nil
}

// checkReport compares a served report with the expected bytes.
func checkReport(got, want string) error {
	if got != want {
		return errors.New("served report differs from the expected report")
	}
	return nil
}

func buildServe(ctx context.Context, cfg Config) (*serveSys, error) {
	logger := quietLogger()
	rec := obs.NewTraceRecorder(256, 0)
	svc, err := service.New(service.Config{
		QueueDepth:   64,
		CacheEntries: 256,
		Runner:       service.ExperimentRunner,
		KnownIDs:     service.KnownExperimentIDs(),
		Logger:       logger,
		Recorder:     rec,
		SlowTrace:    10 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	svc.Start()
	sys := &serveSys{
		svc:    svc,
		srv:    httptest.NewServer(httpapi.NewMux(svc, httpapi.Config{Logger: logger, NodeID: "serve", Recorder: rec})),
		client: loopbackClient(loopbackTransport()),
	}
	sc := cfg.Serve
	for k := 0; k < len(sc.HotIDs)*sc.HotSeeds; k++ {
		jr, _, err := send(ctx, sys, hotRequest(sc, k), nil)
		if err != nil {
			sys.close()
			return nil, fmt.Errorf("warming hot key %d: %w", k, err)
		}
		sys.warm = append(sys.warm, jr.Report)
	}
	return sys, nil
}

// schedule generates one rate step's requests: in every block of
// serveMissEvery requests one seeded position is a miss on the next miss
// id with a fresh seed; the rest draw hot keys by Zipf(1.1) over a fixed
// rank order.
func schedule(cfg Config, step, n int, misses *int) []request {
	sc := cfg.Serve
	rng := rand.New(rand.NewSource(deriveSeed(cfg.Seed, "serve/step", step)))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(sc.HotIDs)*sc.HotSeeds-1))
	reqs := make([]request, n)
	missAt := 0
	for k := range reqs {
		if k%serveMissEvery == 0 {
			missAt = k + rng.Intn(serveMissEvery)
		}
		if k == missAt {
			reqs[k] = request{id: sc.MissIDs[*misses%len(sc.MissIDs)], seed: deriveSeed(cfg.Seed, "serve/miss", *misses), hot: -1}
			*misses++
			continue
		}
		reqs[k] = hotRequest(sc, int(zipf.Uint64()))
	}
	return reqs
}

// runStep sends reqs on an open-loop schedule at rate req/s from two
// client goroutines over the two-connection client. Latency counts from
// each request's due time, so a stall charges every request it delays.
func runStep(ctx context.Context, cfg Config, sys *serveSys, tr *tracer, reqs []request, rate float64) []outcome {
	outs := make([]outcome, len(reqs))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(reqs) || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				time.Sleep(time.Until(due))
				o := outcome{req: reqs[k], late: time.Since(due), traced: cfg.Trace && k%2 == 1}
				octx, end := ctx, func(...obs.Attr) {}
				if o.traced {
					octx, end = tr.op(ctx, "bench.serve", due)
				}
				hctx, hend := tr.child(octx, "httpapi.request")
				jr, size, err := send(hctx, sys, o.req, cfg.tamperBody)
				hend()
				end()
				o.lat, o.size, o.err, o.report = time.Since(due), size, err, jr.Report
				if !jr.Started.IsZero() {
					o.queueWait = jr.Started.Sub(jr.Queued)
					o.run = jr.Finished.Sub(jr.Started)
				}
				if err == nil && o.req.hot >= 0 {
					o.err = checkReport(jr.Report, sys.warm[o.req.hot])
				}
				outs[k] = o
			}
		}()
	}
	wg.Wait()
	return outs
}

// servedMiss is a miss kept for the in-process recomputation check.
type servedMiss struct {
	outcome
	op int
}

// stepStats summarises one rate step.
type stepStats struct {
	rate                       float64
	lat, hit, miss, qwait, run []float64
	size                       []float64
	late                       []float64
	tracedLat                  []float64
	p99                        float64
	lastLate                   float64
}

func summarise(rate float64, outs []outcome) stepStats {
	st := stepStats{rate: rate}
	var all []float64
	for _, o := range outs {
		l := o.lat.Seconds()
		if o.err != nil {
			l = math.Inf(1) // a failed request misses every latency limit
		}
		all = append(all, l)
		st.late = append(st.late, o.late.Seconds())
		if o.traced {
			st.tracedLat = append(st.tracedLat, l)
			continue
		}
		st.lat = append(st.lat, l)
		if o.req.hot >= 0 {
			st.hit = append(st.hit, l)
			st.size = append(st.size, float64(o.size))
		} else {
			st.miss = append(st.miss, l)
			st.qwait = append(st.qwait, o.queueWait.Seconds())
			st.run = append(st.run, o.run.Seconds())
		}
	}
	st.p99 = quantile(all, 0.99)
	if n := len(outs); n > 0 {
		st.lastLate = outs[n-1].late.Seconds()
	}
	return st
}

func runServe(ctx context.Context, cfg Config) (*Result, error) {
	sc := cfg.Serve
	r := &Result{Workload: "serve", Stamp: NewStamp(cfg.Seed), Traced: cfg.Trace}
	var tr *tracer
	if cfg.Trace {
		tr = &tracer{}
	}
	heap := startHeapSampler()
	led := &ledger{}
	out, in := newDigest(), newDigest()

	var sys *serveSys
	var st setupTimer
	warmup := hotRequest(sc, 0)
	for rep := 0; st.more(cfg, rep); rep++ {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		var err error
		if sys, err = buildServe(ctx, cfg); err != nil {
			heap.stopMB()
			return nil, fmt.Errorf("bench: serve set-up: %w", err)
		}
		led.attempt()
		jr, _, err := send(ctx, sys, warmup, nil)
		if err == nil {
			err = checkReport(jr.Report, sys.warm[0])
		}
		if err != nil {
			led.fail(-1-rep, err)
		}
		st.add(time.Since(t0))
	}
	defer sys.close()
	for _, rep := range sys.warm {
		out.add([]byte(rep))
	}

	stats0 := sys.svc.Stats()
	ph := startPhase()
	stepDur := cfg.Seconds / float64(len(sc.Rates))
	var steps []stepStats
	var checked []servedMiss
	misses, served, op := 0, 0, 0
	for s, rate := range sc.Rates {
		reqs := schedule(cfg, s, max(int(rate*stepDur), 1), &misses)
		outs := runStep(ctx, cfg, sys, tr, reqs, rate)
		steps = append(steps, summarise(rate, outs))
		for _, o := range outs {
			led.attempt()
			if o.err != nil {
				led.fail(op, o.err)
			}
			in.add(o.req.body())
			out.add([]byte(o.report))
			if o.req.hot < 0 && o.err == nil {
				if served%sc.CheckEvery == 0 {
					checked = append(checked, servedMiss{o, op})
				}
				served++
			}
			op++
		}
	}
	ph.stop()
	ph.ops = op
	if err := ctx.Err(); err != nil {
		heap.stopMB()
		return nil, err
	}
	stats1 := sys.svc.Stats()

	// One miss in CheckEvery is recomputed in-process.
	for _, m := range checked {
		want, err := service.ExperimentRunner(ctx, service.Request{ID: m.req.id, Seed: m.req.seed, Quick: true})
		if err == nil {
			err = checkReport(m.report, want)
		}
		if err != nil {
			led.fail(m.op, fmt.Errorf("miss %s seed %d: %w", m.req.id, m.req.seed, err))
		}
	}

	st.report(r)
	rep := steps[0]
	maxRPS := 0.0
	for _, s := range steps {
		if s.rate == sc.ReportRate {
			rep = s
		}
		if s.p99 <= serveLatencyLimit.Seconds() && s.lastLate < 0.1 {
			maxRPS = s.rate
		}
	}
	v, lvl := tail(rep.lat)
	r.addNote("op_p50_s", mathx.Median(rep.lat), "s", fmt.Sprintf("%d requests at %g req/s", len(rep.lat), rep.rate))
	r.addNote("op_tail_s", v, "s", pctLabel(lvl, len(rep.lat))+fmt.Sprintf(" at %g req/s", rep.rate))
	r.add("cpu_s_per_op", ph.cpu.Seconds()/float64(ph.ops), "s")
	r.add("hit_p50_ms", 1e3*mathx.Median(rep.hit), "ms")
	r.add("miss_p50_ms", 1e3*mathx.Median(rep.miss), "ms")
	r.addNote("serve_max_rps", maxRPS, "req/s", fmt.Sprintf("p99 <= %v and generator lateness < 100ms", serveLatencyLimit))
	for _, s := range steps {
		name := "rate_" + strconv.FormatFloat(s.rate, 'f', -1, 64)
		r.add(name+".p50_ms", 1e3*mathx.Median(s.lat), "ms")
		r.add(name+".p99_ms", 1e3*s.p99, "ms")
		r.add(name+".late_ms", 1e3*s.lastLate, "ms")
	}
	if cfg.Trace {
		hits := stats1.CacheHits - stats0.CacheHits
		lookups := hits + stats1.CacheMisses - stats0.CacheMisses
		r.addNote("service.cache_hit_ratio", float64(hits)/float64(max(lookups, 1)), "ratio",
			fmt.Sprintf("%d hits / %d lookups", hits, lookups))
		r.add("service.queue_wait_p50_ms", 1e3*mathx.Median(rep.qwait), "ms")
		r.add("service.run_p50_ms", 1e3*mathx.Median(rep.run), "ms")
		direct, viaHTTP := probeHits(ctx, cfg, sys, tr, led)
		r.add("service.hit_direct_p50_us", 1e6*mathx.Median(direct), "us")
		r.add("httpapi.hit_overhead_p50_us", 1e6*(mathx.Median(viaHTTP)-mathx.Median(direct)), "us")
		r.add("httpapi.resp_bytes_p50", mathx.Median(rep.size), "B")
		r.add("bench.gen_late_p99_ms", 1e3*quantile(rep.late, 0.99), "ms")
		ph.runtimeMetrics(r)
		traceOverhead(r, rep.lat, rep.tracedLat)
	}
	r.add("peak_heap_mb", heap.stopMB(), "MB")
	finish(r, led, in, out, tr)
	return r, nil
}

// probeHits times Probes hot-key requests made directly through
// SubmitCtx and Wait, then as many over HTTP, one at a time on an idle
// system; the difference of their medians is the HTTP layer's cost on
// the cache-hit path.
func probeHits(ctx context.Context, cfg Config, sys *serveSys, tr *tracer, led *ledger) (direct, viaHTTP []float64) {
	sc := cfg.Serve
	hot := len(sc.HotIDs) * sc.HotSeeds
	for k := 0; k < sc.Probes; k++ {
		req := hotRequest(sc, k%hot)
		t0 := time.Now()
		octx, end := tr.op(ctx, "bench.serve.direct", t0)
		sctx, sEnd := tr.child(octx, "service.submit")
		jv, err := sys.svc.SubmitCtx(sctx, service.Request{ID: req.id, Seed: req.seed, Quick: true})
		if err == nil {
			jv, err = sys.svc.Wait(sctx, jv.ID)
		}
		sEnd()
		end()
		direct = append(direct, time.Since(t0).Seconds())
		if err == nil {
			got, _ := sys.svc.Result(jv.Key)
			err = checkReport(got, sys.warm[req.hot])
		}
		if err != nil {
			led.fail(fmt.Sprintf("probe/direct/%d", k), fmt.Errorf("direct hit probe: %w", err))
		}
	}
	for k := 0; k < sc.Probes; k++ {
		req := hotRequest(sc, k%hot)
		t0 := time.Now()
		octx, end := tr.op(ctx, "bench.serve.http", t0)
		hctx, hend := tr.child(octx, "httpapi.request")
		jr, _, err := send(hctx, sys, req, nil)
		hend()
		end()
		viaHTTP = append(viaHTTP, time.Since(t0).Seconds())
		if err == nil {
			err = checkReport(jr.Report, sys.warm[req.hot])
		}
		if err != nil {
			led.fail(fmt.Sprintf("probe/http/%d", k), fmt.Errorf("http hit probe: %w", err))
		}
	}
	return direct, viaHTTP
}
