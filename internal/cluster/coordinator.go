package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Config tunes the coordinator's scheduling. Zero values pick sane
// defaults; none of the knobs can affect the statistics — scheduling
// decides where and when a chunk is computed, never what it computes.
type Config struct {
	// Shards is how many shards to split a run into; 0 means one per
	// ready worker. More shards than workers is fine (they queue) and
	// gives finer-grained reassignment when a worker dies.
	Shards int
	// MaxAttempts bounds dispatch attempts per shard, hedges included.
	// Default 4.
	MaxAttempts int
	// RetryBase is the first backoff delay; doubles per failed attempt
	// up to RetryMax, with ±50% jitter so a wounded cluster is not hit
	// by synchronized retries. Defaults 50ms / 2s.
	RetryBase time.Duration
	RetryMax  time.Duration
	// HedgeAfter launches a duplicate attempt on a second worker when
	// the primary has not answered within this duration; first result
	// wins and the loser is cancelled. 0 disables hedging.
	HedgeAfter time.Duration
	// LocalFallback lets a shard run in-process when no worker can take
	// it, so a coordinator with a dead peer set degrades to a slow
	// local run instead of failing.
	LocalFallback bool
	// LocalWorkers caps goroutines for fallback shards; 0 = GOMAXPROCS.
	LocalWorkers int
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 2 * time.Second
	}
	return c
}

// Coordinator shards kernel runs across a worker pool. It implements
// sim.Executor: attach it with sim.WithExecutor and every kernel run
// under that context fans out to the pool and merges to a bit-identical
// result (see doc.go for why scheduling cannot perturb the statistics).
type Coordinator struct {
	tr  Transport
	reg *Registry
	cfg Config

	mu   sync.Mutex
	rr   int        // round-robin cursor over ready workers
	jrng *rand.Rand // backoff jitter; timing-only, never statistics
}

// NewCoordinator schedules over the registry's ready workers via tr.
func NewCoordinator(tr Transport, reg *Registry, cfg Config) *Coordinator {
	return &Coordinator{tr: tr, reg: reg, cfg: cfg.withDefaults(), jrng: rand.New(rand.NewSource(time.Now().UnixNano()))}
}

// shard is one contiguous chunk range of the run.
type shard struct{ lo, hi int }

// shardRanges splits chunks into at most want contiguous ranges of
// near-equal size: shard s covers [s*chunks/S, (s+1)*chunks/S).
func shardRanges(chunks, want int) []shard {
	if want <= 0 {
		want = 1
	}
	if want > chunks {
		want = chunks
	}
	out := make([]shard, want)
	for s := 0; s < want; s++ {
		out[s] = shard{lo: s * chunks / want, hi: (s + 1) * chunks / want}
	}
	return out
}

// pick returns the next ready worker in round-robin order, skipping
// addresses in exclude. ok is false when every ready worker is
// excluded or none are ready.
func (c *Coordinator) pick(exclude map[string]bool) (string, bool) {
	ready := c.reg.Ready()
	if len(ready) == 0 {
		return "", false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < len(ready); i++ {
		addr := ready[(c.rr+i)%len(ready)]
		if !exclude[addr] {
			c.rr = (c.rr + i + 1) % len(ready)
			return addr, true
		}
	}
	return "", false
}

// backoff returns the jittered delay before attempt n (1-based).
func (c *Coordinator) backoff(attempt int) time.Duration {
	d := c.cfg.RetryBase << (attempt - 1)
	if d > c.cfg.RetryMax || d <= 0 {
		d = c.cfg.RetryMax
	}
	c.mu.Lock()
	f := 0.5 + c.jrng.Float64() // ±50% jitter
	c.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// RunChunkRange implements sim.Executor: it splits chunks [lo, hi) of
// the run's plan into shards, dispatches them concurrently across the
// worker pool and returns their partials indexed from lo. A fixed run
// issues one range covering the whole plan, an adaptive run one range
// per stopping round; the coordinator folds nothing, so the result is
// bit-identical to a local run. It reports completed trials but never
// grows the progress total — the run schedule in sim accounts the
// budget. Any shard exhausting its attempts fails the whole range with
// the lowest such shard's error: a partial distributed result would
// silently change statistics. A range whose shards all finished is
// returned even if ctx is done by then.
func (c *Coordinator) RunChunkRange(ctx context.Context, run sim.KernelRun, lo, hi int) ([]mathx.Running, error) {
	plan := run.Plan()
	chunks := plan.Chunks()
	if lo < 0 || hi > chunks || lo >= hi {
		return nil, fmt.Errorf("cluster: chunk range [%d, %d) outside plan of %d chunks", lo, hi, chunks)
	}
	want := c.cfg.Shards
	if want <= 0 {
		want = len(c.reg.Ready())
		if want == 0 {
			want = 1
		}
	}
	shards := shardRanges(hi-lo, want)

	progress := obs.ProgressFrom(ctx)
	log := obs.Logger(ctx)
	parts := make([]mathx.Running, hi-lo)
	err := sim.Each(ctx, len(shards), len(shards), func(_, i int) error {
		sh := shards[i]
		abs := shard{lo: lo + sh.lo, hi: lo + sh.hi}
		res, err := c.runShard(ctx, run, abs)
		if err != nil {
			return err
		}
		copy(parts[sh.lo:sh.hi], res)
		n := int64(0)
		for ch := abs.lo; ch < abs.hi; ch++ {
			n += int64(plan.ChunkTrials(ch))
		}
		progress.Add(n)
		log.Debug("shard done", "shard", i, "chunk_lo", abs.lo, "chunk_hi", abs.hi)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return parts, nil
}

// runShard drives one shard to completion: pick a worker, execute with
// an optional hedge, and on failure back off and try the next worker.
func (c *Coordinator) runShard(ctx context.Context, run sim.KernelRun, sh shard) ([]mathx.Running, error) {
	ctx, span := obs.StartSpan(ctx, "cluster.shard")
	defer span.End()
	span.SetAttr("chunk_lo", strconv.Itoa(sh.lo)).SetAttr("chunk_hi", strconv.Itoa(sh.hi))

	req := ShardRequest{
		Kernel:    run.Kernel,
		Params:    run.Params,
		Seed:      run.Seed,
		Trials:    run.Trials,
		ChunkLo:   sh.lo,
		ChunkHi:   sh.hi,
		ChunkSize: sim.ChunkSize,
	}
	if span.Recording() {
		req.Trace = true
		req.TraceID = span.TraceID()
		req.ParentSpan = span.SpanID()
	}
	log := obs.Logger(ctx)
	// lastAddr is excluded from the immediately following pick so a
	// retried shard prefers a different worker; a dead worker's shard
	// is thereby reassigned rather than hammered.
	var lastAddr string
	var lastDead bool
	var lastErr error
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		exclude := map[string]bool{}
		if lastAddr != "" {
			exclude[lastAddr] = true
		}
		addr, ok := c.pick(exclude)
		if !ok {
			// Nobody else is ready; a merely-suspect last worker may
			// still take the retry.
			addr, ok = c.pick(nil)
		}
		if !ok {
			if c.cfg.LocalFallback {
				metShards.With("local").Inc()
				span.Event("local_fallback")
				log.Warn("no ready workers, running shard locally", "chunk_lo", sh.lo, "chunk_hi", sh.hi)
				// RunChunkRange reports the shard's trials once it lands;
				// the local pool must not report them a second time.
				mc := sim.MonteCarlo{Seed: run.Seed, Workers: c.cfg.LocalWorkers}
				return mc.RunKernelChunksCtx(obs.WithProgress(ctx, obs.Nop), run.Kernel, run.Params, run.Trials, sh.lo, sh.hi)
			}
			lastErr = fmt.Errorf("cluster: no ready workers for shard [%d, %d)", sh.lo, sh.hi)
		} else {
			if lastDead && addr != lastAddr {
				metShards.With("reassigned").Inc()
				span.Event("reassigned", obs.Attr{Key: "from", Value: lastAddr}, obs.Attr{Key: "to", Value: addr})
				log.Info("shard reassigned off dead worker", "from", lastAddr, "to", addr, "chunk_lo", sh.lo)
			}
			res, err := c.execHedged(ctx, span, addr, req)
			if err == nil {
				metShards.With("ok").Inc()
				span.SetAttr("worker", res.WorkerID)
				if rec := obs.RecorderFrom(ctx); rec != nil {
					rec.Import(res.Spans)
				}
				return res.Runnings(), nil
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			metShards.With("failed").Inc()
			c.reg.MarkFailed(addr)
			span.Event("worker_dead", obs.Attr{Key: "worker", Value: addr}, obs.Attr{Key: "error", Value: err.Error()})
			lastAddr, lastDead, lastErr = addr, true, err
			log.Warn("shard attempt failed", "worker", addr, "attempt", attempt, "err", err)
		}
		if attempt == c.cfg.MaxAttempts {
			break
		}
		metShards.With("retried").Inc()
		span.Event("retry", obs.Attr{Key: "attempt", Value: strconv.Itoa(attempt)})
		t := time.NewTimer(c.backoff(attempt))
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		case <-t.C:
		}
	}
	return nil, fmt.Errorf("cluster: shard [%d, %d) failed after %d attempts: %w", sh.lo, sh.hi, c.cfg.MaxAttempts, lastErr)
}

// execHedged runs one dispatch attempt, optionally racing a hedge
// launched HedgeAfter into the primary's silence. The first success
// cancels the other call; both failing returns the last error. Chunk
// determinism makes hedging safe: both calls compute identical
// partials, so whichever wins, the merged result is the same.
func (c *Coordinator) execHedged(ctx context.Context, span *obs.Span, primary string, req ShardRequest) (ShardResult, error) {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		res  ShardResult
		addr string
		err  error
	}
	ch := make(chan outcome, 2)
	start := time.Now()
	exec := func(addr string) {
		res, err := c.tr.ExecShard(hctx, addr, req)
		ch <- outcome{res: res, addr: addr, err: err}
	}
	go exec(primary)
	inflight := 1

	var hedgeC <-chan time.Time
	if c.cfg.HedgeAfter > 0 {
		t := time.NewTimer(c.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}

	var lastErr error
	for {
		select {
		case <-ctx.Done():
			return ShardResult{}, ctx.Err()
		case <-hedgeC:
			hedgeC = nil
			if addr, ok := c.pick(map[string]bool{primary: true}); ok {
				metShards.With("hedged").Inc()
				span.Event("hedge_fired", obs.Attr{Key: "primary", Value: primary}, obs.Attr{Key: "hedge", Value: addr})
				obs.Logger(ctx).Info("hedging straggler shard", "primary", primary, "hedge", addr, "chunk_lo", req.ChunkLo)
				go exec(addr)
				inflight++
			}
		case o := <-ch:
			if o.err == nil {
				metShardDuration.Observe(time.Since(start).Seconds())
				if inflight > 1 || o.addr != primary {
					span.Event("hedge_won", obs.Attr{Key: "winner", Value: o.addr})
				}
				cancel() // first result wins; the loser sees ctx.Canceled
				return o.res, nil
			}
			lastErr = o.err
			if o.addr != primary {
				// A failed hedge must not poison the primary's verdict,
				// but a dead hedge target should stop being picked.
				c.reg.MarkFailed(o.addr)
			}
			inflight--
			if inflight == 0 {
				return ShardResult{}, lastErr
			}
		}
	}
}
