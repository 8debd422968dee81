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

// Config tunes the coordinator's local fallback. Scheduling decides
// where and when a chunk is computed, never what it computes, so no
// field can affect the statistics.
type Config struct {
	// LocalFallback lets a shard run in-process when no worker can take
	// it, so a coordinator with a dead peer set degrades to a slow
	// local run instead of failing.
	LocalFallback bool
	// LocalWorkers caps goroutines for fallback shards; 0 = GOMAXPROCS.
	LocalWorkers int
}

// Dispatch attempts per shard, and the backoff before each retry: it
// starts at retryBase, doubles per failed attempt up to retryMax and
// carries ±50% jitter so a wounded cluster is not hit by synchronized
// retries.
const (
	maxAttempts = 4
	retryBase   = 50 * time.Millisecond
	retryMax    = 2 * time.Second
)

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
	return &Coordinator{tr: tr, reg: reg, cfg: cfg, jrng: rand.New(rand.NewSource(time.Now().UnixNano()))}
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
	d := retryBase << (attempt - 1)
	if d > retryMax || d <= 0 {
		d = retryMax
	}
	c.mu.Lock()
	f := 0.5 + c.jrng.Float64() // ±50% jitter
	c.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// RunChunkRange implements sim.Executor: it splits chunks [lo, hi) of
// the run's plan into one shard per ready worker (at least one),
// dispatches them concurrently across the worker pool and returns
// their partials indexed from lo. A fixed run issues one range
// covering the whole plan, an adaptive run one range per stopping
// round; the coordinator folds nothing, so the result is bit-identical
// to a local run. It reports completed trials but never
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
	shards := shardRanges(hi-lo, len(c.reg.Ready()))

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

// runShard drives one shard to completion: pick a worker, execute, and
// on failure back off and try the next worker.
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
	for attempt := 1; attempt <= maxAttempts; attempt++ {
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
			start := time.Now()
			res, err := c.tr.ExecShard(ctx, addr, req)
			if err == nil {
				metShardDuration.Observe(time.Since(start).Seconds())
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
		if attempt == maxAttempts {
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
	return nil, fmt.Errorf("cluster: shard [%d, %d) failed after %d attempts: %w", sh.lo, sh.hi, maxAttempts, lastErr)
}
