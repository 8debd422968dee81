package bench

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/mathx"
	"repro/internal/obs"
)

// closedWorkload is a closed-loop workload: one client issues the next
// op when the previous one returns.
type closedWorkload interface {
	// input describes op i's generated inputs (i < 0: warm-up ops).
	input(i int) []byte
	// op runs op i and returns its output for the digest.
	op(ctx context.Context, i int) ([]byte, error)
	// check runs the untimed correctness checks after the timed phase.
	check(ctx context.Context, led *ledger)
	// metrics adds the workload's own metrics.
	metrics(r *Result, ph *phase)
	close()
}

type builder func(ctx context.Context, cfg Config, tr *tracer) (closedWorkload, error)

// phase measures the timed phase: wall and CPU time, the program's
// Monte-Carlo trial counter and the Go runtime's allocation and GC
// totals.
type phase struct {
	ops            int
	wall, cpu      time.Duration
	trials         int64
	untraced, trcd []time.Duration

	start    time.Time
	cpuStart time.Duration
	trials0  int64
	ms0, ms1 runtime.MemStats
}

func startPhase() *phase {
	p := &phase{start: time.Now(), cpuStart: cpuTime(), trials0: mcTrials.Value()}
	runtime.ReadMemStats(&p.ms0)
	return p
}

func (p *phase) stop() {
	p.wall = time.Since(p.start)
	p.cpu = cpuTime() - p.cpuStart
	p.trials = mcTrials.Value() - p.trials0
	runtime.ReadMemStats(&p.ms1)
}

// record adds one op latency.
func (p *phase) record(d time.Duration, traced bool) {
	p.ops++
	if traced {
		p.trcd = append(p.trcd, d)
	} else {
		p.untraced = append(p.untraced, d)
	}
}

// common adds the metrics every closed-loop workload reports from its
// op latencies and phase totals. Latencies come from untraced ops only.
func (p *phase) common(r *Result) {
	lat := seconds(p.untraced)
	v, lvl := tail(lat)
	r.addNote("op_p50_s", mathx.Median(lat), "s", fmt.Sprintf("%d ops", len(lat)))
	r.addNote("op_tail_s", v, "s", pctLabel(lvl, len(lat)))
	r.add("cpu_s_per_op", p.cpu.Seconds()/float64(p.ops), "s")
	if r.Traced {
		p.runtimeMetrics(r)
		traceOverhead(r, lat, seconds(p.trcd))
	}
}

// runtimeMetrics adds the Go runtime's per-op allocation and GC costs
// over the phase.
func (p *phase) runtimeMetrics(r *Result) {
	n := float64(max(p.ops, 1))
	r.add("go.alloc_mb_per_op", float64(p.ms1.TotalAlloc-p.ms0.TotalAlloc)/1e6/n, "MB")
	r.add("go.gc_cycles_per_op", float64(p.ms1.NumGC-p.ms0.NumGC)/n, "count")
	r.add("go.gc_pause_ms_per_op", float64(p.ms1.PauseTotalNs-p.ms0.PauseTotalNs)/1e6/n, "ms")
	r.add("bench.ops", float64(p.ops), "count")
}

// traceOverhead adds traced over untraced median op latency, minus 1.
func traceOverhead(r *Result, untraced, traced []float64) {
	if u := mathx.Median(untraced); u > 0 && len(traced) > 0 {
		r.add("bench.trace_overhead_frac", mathx.Median(traced)/u-1, "ratio")
	}
}

// heapSampler tracks the peak of the live heap every 50 ms.
type heapSampler struct {
	stopc, done chan struct{}
	peak        uint64
	sample      []metrics.Sample
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{
		stopc:  make(chan struct{}),
		done:   make(chan struct{}),
		sample: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
	}
	s.read()
	go func() {
		defer close(s.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stopc:
				s.read()
				return
			case <-t.C:
				s.read()
			}
		}
	}()
	return s
}

func (s *heapSampler) read() {
	metrics.Read(s.sample)
	if v := s.sample[0].Value.Uint64(); v > s.peak {
		s.peak = v
	}
}

// stopMB stops the sampler and returns the peak in MB.
func (s *heapSampler) stopMB() float64 {
	close(s.stopc)
	<-s.done
	return float64(s.peak) / 1e6
}

// setupTimer times the set-up repetitions. setup_s is the process's
// age when the benchmark package initialised plus the median set-up:
// building the system from scratch and one warm-up op.
type setupTimer struct {
	times []float64
	total float64
}

func (s *setupTimer) add(d time.Duration) {
	s.times = append(s.times, d.Seconds())
	s.total += d.Seconds()
}

// more reports whether to run set-up repetition rep: at least SetupReps
// of them, and more while they have taken under SetupMinSeconds, so a
// cheap set-up is timed often enough for its median to repeat.
func (s *setupTimer) more(cfg Config, rep int) bool {
	return rep < max(cfg.SetupReps, 1) || (s.total < cfg.SetupMinSeconds && rep < 50)
}

func (s *setupTimer) report(r *Result) {
	r.addNote("setup_s", initAge.Seconds()+mathx.Median(s.times), "s",
		fmt.Sprintf("init %.3fs + median of %d set-ups", initAge.Seconds(), len(s.times)))
}

// runClosed drives a closed-loop workload: SetupReps set-ups, then the
// timed phase, then the checks.
func runClosed(ctx context.Context, cfg Config, name string, build builder) (*Result, error) {
	r := &Result{Workload: name, Stamp: NewStamp(cfg.Seed), Traced: cfg.Trace}
	var tr *tracer
	if cfg.Trace {
		tr = &tracer{}
	}
	heap := startHeapSampler()
	led := &ledger{}
	out, in := newDigest(), newDigest()

	var w closedWorkload
	var st setupTimer
	for rep := 0; st.more(cfg, rep); rep++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		var err error
		if w, err = build(ctx, cfg, tr); err != nil {
			heap.stopMB()
			return nil, fmt.Errorf("bench: %s set-up: %w", name, err)
		}
		i := -1 - rep
		led.attempt()
		b, err := w.op(ctx, i)
		if err != nil {
			led.fail(i, err)
		}
		st.add(time.Since(t0))
		if rep < cfg.SetupReps {
			in.add(w.input(i))
			out.add(b)
		}
	}
	defer w.close()

	minOps := max(cfg.MinOps, 1)
	if cfg.Trace {
		minOps *= 2 // odd ops are traced, even ops measure untraced
	}
	ph := startPhase()
	for i := 0; ctx.Err() == nil && (i < minOps || time.Since(ph.start).Seconds() < cfg.Seconds); i++ {
		t0 := time.Now()
		octx, end := ctx, func(...obs.Attr) {}
		isTraced := cfg.Trace && i%2 == 1
		if isTraced {
			octx, end = tr.op(ctx, "bench."+name, t0)
		}
		led.attempt()
		b, err := w.op(octx, i)
		d := time.Since(t0)
		end()
		if err != nil {
			led.fail(i, err)
		}
		ph.record(d, isTraced)
		if i < cfg.MinOps {
			in.add(w.input(i))
			out.add(b)
		}
	}
	ph.stop()
	if err := ctx.Err(); err != nil {
		heap.stopMB()
		return nil, err
	}
	w.check(ctx, led)
	runLadder(ctx, cfg, tr, r, led)

	st.report(r)
	ph.common(r)
	w.metrics(r, ph)
	r.add("peak_heap_mb", heap.stopMB(), "MB")
	finish(r, led, in, out, tr)
	return r, nil
}

// finish fills the result's counts, digests and trace.
func finish(r *Result, led *ledger, in, out *digest, tr *tracer) {
	led.fill(r)
	r.add("fail_frac", float64(r.Failed)/float64(max(r.Attempted, 1)), "ratio")
	r.Digest, r.InputDigest = out.sum(), in.sum()
	if tr != nil {
		r.spans = tr.snapshot()
		r.Layers = layerTable(r.spans)
	}
}
