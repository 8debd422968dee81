package bench

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/ebtable"
	"repro/internal/experiments"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/sim"
)

// paper is the researcher regenerating the paper: one op builds the ēb
// table by Monte-Carlo and then reruns every paper experiment.
type paper struct {
	cfg      Config
	tr       *tracer
	analytic *ebtable.Table

	mu        sync.Mutex
	first     []string // op 0's reports, re-run serially by check
	builds    []float64
	cellMs    []float64
	allocs    []float64
	expMs     map[string][]float64
	maxRelErr float64
	cells     int
}

func newPaper(_ context.Context, cfg Config, tr *tracer) (closedWorkload, error) {
	an, err := ebtable.Build(ebtable.Analytic{}, cfg.Paper.Grid)
	if err != nil {
		return nil, err
	}
	return &paper{cfg: cfg, tr: tr, analytic: an, expMs: map[string][]float64{}}, nil
}

func (p *paper) seed(i int) int64 { return deriveSeed(p.cfg.Seed, "paper", i) }

func (p *paper) input(i int) []byte { return strconv.AppendInt(nil, p.seed(i), 10) }

func (p *paper) op(ctx context.Context, i int) ([]byte, error) {
	pc := p.cfg.Paper
	seed := p.seed(i)
	on := traced(ctx)

	var solver ebtable.Solver = &ebtable.MonteCarlo{Samples: ebSamples, Seed: seed}
	bctx, endBuild := p.tr.child(ctx, "ebtable.build")
	if on {
		solver = &timedSolver{inner: solver, ctx: bctx, p: p}
	}
	var ms0, ms1 runtime.MemStats
	if on {
		runtime.ReadMemStats(&ms0)
	}
	t0 := time.Now()
	tb, err := ebtable.Build(solver, pc.Grid)
	build := time.Since(t0)
	endBuild()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if on {
		runtime.ReadMemStats(&ms1)
		p.allocs = append(p.allocs, float64(ms1.Mallocs-ms0.Mallocs))
	} else if i >= 0 {
		p.builds = append(p.builds, build.Seconds())
	}
	p.cells = tb.Len()
	p.mu.Unlock()

	if p.cfg.tamperEb != nil {
		p.cfg.tamperEb(tb)
	}
	var out bytes.Buffer
	if err := tb.Save(&out); err != nil {
		return nil, err
	}
	relErr, err := checkEb(tb, p.analytic)
	p.mu.Lock()
	p.maxRelErr = math.Max(p.maxRelErr, relErr)
	p.mu.Unlock()
	if err != nil {
		return out.Bytes(), err
	}

	ectx := ctx
	if on {
		ectx = sim.WithExecutor(ctx, &timedExec{tr: p.tr, workers: 2})
	}
	for _, id := range paperIDs {
		xctx, end := p.tr.child(ectx, "experiments."+id)
		t := time.Now()
		rep, err := experiments.RunCtx(xctx, id, experiments.Options{Seed: seed, Quick: pc.Quick, Workers: 2})
		d := time.Since(t)
		end()
		if err != nil {
			return out.Bytes(), fmt.Errorf("%s: %w", id, err)
		}
		s := rep.String()
		out.WriteString(s)
		p.mu.Lock()
		if on {
			p.expMs[id] = append(p.expMs[id], float64(d)/1e6)
		}
		if i == 0 {
			p.first = append(p.first, s)
		}
		p.mu.Unlock()
	}
	return out.Bytes(), nil
}

// ebTolerance bounds a Monte-Carlo cell's relative distance from the
// closed form at ebSamples draws. The scatter grows as the diversity
// order mt·mr falls: over 200 seeds (600 cells per antenna pair and p)
// the largest distances were 29% at order 1, 9.7% at order 2 and 5.7%
// at order 3 and above, each at p = 0.001.
func ebTolerance(k ebtable.Key) float64 {
	switch k.Mt * k.Mr {
	case 1:
		return 0.40
	case 2:
		return 0.20
	}
	return 0.10
}

// checkEb verifies every cell of a Monte-Carlo table against the
// closed-form table over the same grid and returns the largest relative
// error. A missing, extra or out-of-tolerance cell is an error.
func checkEb(mc, analytic *ebtable.Table) (float64, error) {
	if mc.Len() != analytic.Len() {
		return 0, fmt.Errorf("ebtable: %d cells, closed form has %d", mc.Len(), analytic.Len())
	}
	worst := 0.0
	for k, want := range analytic.Vals {
		got, ok := mc.Vals[k]
		if !ok {
			return worst, fmt.Errorf("ebtable: cell %+v missing", k)
		}
		e := math.Abs(got/want - 1)
		if tol := ebTolerance(k); math.IsNaN(e) || e > tol {
			return math.Max(worst, e), fmt.Errorf("ebtable: cell %+v = %g, closed form %g (relative error %.3f > %g)", k, got, want, e, tol)
		}
		worst = math.Max(worst, e)
	}
	return worst, nil
}

// check re-runs op 0's experiments with one worker: reports must match
// byte for byte whatever the worker count.
func (p *paper) check(ctx context.Context, led *ledger) {
	pc := p.cfg.Paper
	for k, id := range paperIDs {
		if k >= len(p.first) {
			return // op 0 failed before this experiment; already counted
		}
		rep, err := experiments.RunCtx(ctx, id, experiments.Options{Seed: p.seed(0), Quick: pc.Quick, Workers: 1})
		if err != nil {
			led.fail(0, fmt.Errorf("serial re-run of %s: %w", id, err))
			continue
		}
		if rep.String() != p.first[k] {
			led.fail(0, fmt.Errorf("%s: report at Workers 1 differs from Workers 2", id))
		}
	}
}

func (p *paper) metrics(r *Result, ph *phase) {
	r.add("ebtable_build_s", mathx.Median(p.builds), "s")
	r.add("trials_per_s", float64(ph.trials)/ph.wall.Seconds(), "trials/s")
	if !r.Traced {
		return
	}
	r.add("ebtable.solve_p50_ms", mathx.Median(p.cellMs), "ms")
	r.add("ebtable.sample_ms", p.sampleMs(), "ms")
	r.add("ebtable.cells", float64(p.cells), "count")
	r.add("ebtable.allocs", mathx.Median(p.allocs), "count")
	r.add("ebtable.max_relerr", p.maxRelErr, "ratio")
	for _, id := range sortedKeys(p.expMs) {
		r.add("experiments."+id+"_ms", mathx.Median(p.expMs[id]), "ms")
	}
	spans := p.tr.snapshot()
	self := selfTimes(spans)
	var own, total time.Duration
	for _, s := range spans {
		if layerOf(s.Name) == "experiments" {
			own += self[s.ID]
			total += s.End.Sub(s.Start)
		}
	}
	if total > 0 {
		r.add("experiments.self_frac", own.Seconds()/total.Seconds(), "ratio")
	}
}

// sampleMs times one MonteCarlo.BER call per (mt, mr) pair on a fresh
// solver: the channel draws Build would otherwise make inside its first
// bisection probe, plus one BER average.
func (p *paper) sampleMs() float64 {
	mc := &ebtable.MonteCarlo{Samples: ebSamples, Seed: p.seed(0)}
	t := time.Now()
	for _, mt := range p.cfg.Paper.Grid.Mts {
		for _, mr := range p.cfg.Paper.Grid.Mrs {
			mc.BER(1, mt, mr, 1e-20)
		}
	}
	return float64(time.Since(t)) / 1e6
}

func (p *paper) close() {}

// timedSolver is the ebtable.Solver a traced op hands to Build: it
// times each cell's solve as an ebtable.cell span.
type timedSolver struct {
	inner ebtable.Solver
	ctx   context.Context
	p     *paper
}

func (s *timedSolver) EbBar(pr float64, b, mt, mr int) (float64, error) {
	_, end := s.p.tr.child(s.ctx, "ebtable.cell")
	t := time.Now()
	v, err := s.inner.EbBar(pr, b, mt, mr)
	d := time.Since(t)
	end()
	s.p.mu.Lock()
	s.p.cellMs = append(s.p.cellMs, float64(d)/1e6)
	s.p.mu.Unlock()
	return v, err
}

// timedExec is the sim.Executor a traced op attaches: it runs every
// kernel chunk range locally through RunKernelChunksCtx, as the local
// pool would, and records each call as a sim.run span.
type timedExec struct {
	tr      *tracer
	workers int
}

func (e *timedExec) RunShards(ctx context.Context, run sim.KernelRun) ([]mathx.Running, error) {
	if run.Plan().Chunks() == 0 {
		return nil, nil
	}
	return e.RunChunkRange(ctx, run, 0, run.Plan().Chunks())
}

func (e *timedExec) RunChunkRange(ctx context.Context, run sim.KernelRun, lo, hi int) ([]mathx.Running, error) {
	ctx, end := e.tr.child(ctx, "sim.run")
	defer end(obs.Attr{Key: "kernel", Value: run.Kernel},
		obs.Attr{Key: "chunks", Value: strconv.Itoa(hi - lo)})
	mc := sim.MonteCarlo{Seed: run.Seed, Workers: e.workers}
	return mc.RunKernelChunksCtx(ctx, run.Kernel, run.Params, run.Trials, lo, hi)
}
