package bench

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/httpapi"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
)

// fanout is coordinator mode as cogmimod -peers runs it: every op's
// Monte-Carlo work is sharded over worker nodes on loopback listeners.
type fanout struct {
	cfg    Config
	tr     *tracer
	nodes  []*httptest.Server
	svcs   []*service.Service
	client *http.Client
	co     *cluster.Coordinator

	mu       sync.Mutex
	first    map[int]string // ops 0 and 1, compared with local runs
	tracedOp []tracedFanout
	shardMs  []float64
	attempts int
	shards   int
	chunks   int
	wire     atomic.Int64
	overhead []float64
}

type tracedFanout struct {
	seed int64
	wall time.Duration
}

// quietLogger keeps the program's info-level logging work (record
// formatting) without writing it anywhere.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
}

// loopbackClient is the benchmark's HTTP client: at most two
// connections per host.
func loopbackClient(rt http.RoundTripper) *http.Client {
	return &http.Client{Transport: rt, Timeout: 10 * time.Minute}
}

func loopbackTransport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
}

// shardOutcomes is the coordinator's process-wide shard counter; ops run
// one at a time, so its per-op deltas say where that op's shards ran.
var shardOutcomes = obs.Default.CounterVec("cogmimod_shards_total",
	"Distributed shard attempts by outcome.", "status")

func newFanout(ctx context.Context, cfg Config, tr *tracer) (closedWorkload, error) {
	f := &fanout{cfg: cfg, tr: tr, first: map[int]string{}}
	logger := quietLogger()
	var addrs []string
	for k := 0; k < fanoutNodes; k++ {
		svc, err := service.New(service.Config{
			Workers:  1,
			Runner:   service.ExperimentRunner,
			KnownIDs: service.KnownExperimentIDs(),
			Logger:   logger,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		svc.Start()
		srv := httptest.NewServer(httpapi.NewMux(svc, httpapi.Config{
			Logger: logger, NodeID: "node-" + strconv.Itoa(k), ShardWorkers: 1,
		}))
		f.svcs = append(f.svcs, svc)
		f.nodes = append(f.nodes, srv)
		addrs = append(addrs, srv.URL)
	}
	var rt http.RoundTripper = loopbackTransport()
	if cfg.Trace {
		rt = &countingRT{inner: rt, n: &f.wire}
	}
	f.client = loopbackClient(rt)
	var ctr cluster.Transport = &cluster.HTTPTransport{Client: f.client}
	if cfg.Trace {
		ctr = &timedTransport{Transport: ctr, f: f}
	}
	reg := cluster.NewRegistry(ctr, addrs...)
	reg.ProbeOnce(ctx)
	if n := len(reg.Ready()); n != len(addrs) {
		f.close()
		return nil, fmt.Errorf("fanout: %d of %d nodes ready after probing", n, len(addrs))
	}
	for _, srv := range f.nodes[:min(cfg.killNodes, len(f.nodes))] {
		srv.Close()
	}
	f.co = cluster.NewCoordinator(ctr, reg, cluster.Config{LocalFallback: true})
	return f, nil
}

func (f *fanout) request(i int) service.Request {
	return service.Request{ID: fanoutID, Seed: deriveSeed(f.cfg.Seed, "fanout", i), Quick: f.cfg.Fanout.Quick}
}

func (f *fanout) input(i int) []byte {
	req := f.request(i)
	return []byte(req.ID + " " + strconv.FormatInt(req.Seed, 10))
}

// op runs one request through the coordinator. It fails when any shard
// fell back to running in-process or none reached a worker node: the
// report would still match a local run, but the shard wire would not
// have been measured.
func (f *fanout) op(ctx context.Context, i int) ([]byte, error) {
	req := f.request(i)
	ok, local := shardOutcomes.With("ok"), shardOutcomes.With("local")
	ok0, local0 := ok.Value(), local.Value()
	t0 := time.Now()
	report, err := service.ExperimentRunner(sim.WithExecutor(ctx, f.co), req)
	wall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	if remote, inProc := ok.Value()-ok0, local.Value()-local0; inProc > 0 || remote == 0 {
		return []byte(report), fmt.Errorf("%d shards ran on worker nodes, %d in-process", remote, inProc)
	}
	f.mu.Lock()
	if i == 0 || i == 1 {
		f.first[i] = report
	}
	if traced(ctx) {
		f.tracedOp = append(f.tracedOp, tracedFanout{req.Seed, wall})
	}
	f.mu.Unlock()
	return []byte(report), nil
}

// check compares ops 0 and 1 with local runs of the same requests. On a
// traced run it also runs up to three traced ops' requests locally, for
// cluster.overhead_frac.
func (f *fanout) check(ctx context.Context, led *ledger) {
	for i := 0; i < 2; i++ {
		dist, ok := f.first[i]
		if !ok {
			continue // the op failed; already counted
		}
		local, err := service.ExperimentRunner(ctx, f.request(i))
		if err != nil {
			led.fail(i, fmt.Errorf("local run: %w", err))
		} else if local != dist {
			led.fail(i, fmt.Errorf("distributed report differs from the local run"))
		}
	}
	for k, op := range f.tracedOp {
		if k == 3 {
			break
		}
		req := f.request(0)
		req.Seed = op.seed
		t0 := time.Now()
		if _, err := service.ExperimentRunner(ctx, req); err != nil {
			led.fail(0, fmt.Errorf("local overhead run: %w", err))
			continue
		}
		f.overhead = append(f.overhead, op.wall.Seconds()/time.Since(t0).Seconds()-1)
	}
}

func (f *fanout) metrics(r *Result, ph *phase) {
	r.add("trials_per_s", float64(ph.trials)/ph.wall.Seconds(), "trials/s")
	if !r.Traced {
		return
	}
	ops := float64(max(len(f.tracedOp), 1))
	r.add("cluster.shards", float64(f.shards)/ops, "count")
	r.add("cluster.attempts", float64(f.attempts)/ops, "count")
	r.add("cluster.shard_p50_ms", mathx.Median(f.shardMs), "ms")
	r.add("cluster.wire_bytes_per_chunk", float64(f.wire.Load())/float64(max(f.chunks, 1)), "B")
	r.add("cluster.overhead_frac", mathx.Median(f.overhead), "ratio")
}

func (f *fanout) close() {
	for _, srv := range f.nodes {
		srv.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, svc := range f.svcs {
		_ = svc.Stop(ctx) // the pool is idle; a timeout only leaves goroutines to exit
	}
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
}

// timedTransport records every shard attempt a traced op makes as a
// cluster.shard span.
type timedTransport struct {
	cluster.Transport
	f *fanout
}

func (t *timedTransport) ExecShard(ctx context.Context, addr string, req cluster.ShardRequest) (cluster.ShardResult, error) {
	_, end := t.f.tr.child(ctx, "cluster.shard")
	t0 := time.Now()
	res, err := t.Transport.ExecShard(ctx, addr, req)
	d := time.Since(t0)
	end(obs.Attr{Key: "node", Value: addr})
	if traced(ctx) {
		t.f.mu.Lock()
		t.f.attempts++
		if err == nil {
			t.f.shards++
			t.f.chunks += req.ChunkHi - req.ChunkLo
			t.f.shardMs = append(t.f.shardMs, float64(d)/1e6)
		}
		t.f.mu.Unlock()
	}
	return res, err
}

// countingRT counts the request and response body bytes of traced ops'
// shard calls.
type countingRT struct {
	inner http.RoundTripper
	n     *atomic.Int64
}

func (c *countingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	on := traced(req.Context())
	if on && req.ContentLength > 0 {
		c.n.Add(req.ContentLength)
	}
	resp, err := c.inner.RoundTrip(req)
	if err == nil && on {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: c.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	k, err := b.ReadCloser.Read(p)
	b.n.Add(int64(k))
	return k, err
}
