package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/mathx"
	"repro/internal/sim"
)

// ladderOp names the root span of ladder ops, which the self-time table
// leaves out: the ladder is not part of the workload.
const ladderOp = "bench.ladder"

// runLadder measures the rungs below the workloads on a traced run of
// ladderWorkload: each ladder kernel by a direct batch call on one
// chunk, then the chunk runner against direct batch calls over the same
// chunks at one and at two workers. Other workloads report the ladder's
// metrics as 0.
func runLadder(ctx context.Context, cfg Config, tr *tracer, r *Result, led *ledger) {
	if !cfg.Trace || r.Workload != ladderWorkload {
		return
	}
	lc := cfg.Ladder
	for _, k := range ladderKernels {
		batch, err := sim.NewKernelBatch(k.Kernel, k.Params)
		if err != nil {
			led.fail("ladder/"+k.Kernel, err)
			continue
		}
		rng := mathx.NewReusableRand()
		rng.Reseed(deriveSeed(cfg.Seed, "ladder/"+k.Kernel, 0))
		octx, end := tr.op(ctx, ladderOp, time.Now())
		_, kend := tr.child(octx, "kernel."+k.Kernel)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		batch(rng.Rand, lc.KernelTrials)
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		kend()
		end()
		n := float64(lc.KernelTrials)
		r.add("kernel."+k.Kernel+".trial_us", d.Seconds()*1e6/n, "us")
		r.add("kernel."+k.Kernel+".allocs_per_trial", float64(ms1.Mallocs-ms0.Mallocs)/n, "count")
	}

	run := ladderRunner
	seed := deriveSeed(cfg.Seed, "ladder/runner", 0)
	plan := sim.Plan{Seed: seed, Trials: lc.Chunks * sim.ChunkSize}
	batch, err := sim.NewKernelBatch(run.Kernel, run.Params)
	if err != nil {
		led.fail("ladder/runner", err)
		return
	}
	direct := func() mathx.Running {
		rng := mathx.NewReusableRand()
		var total mathx.Running
		for c, s := range plan.Seeds() {
			rng.Reseed(s)
			total.Merge(batch(rng.Rand, plan.ChunkTrials(c)))
		}
		return total
	}
	runner := func(workers int) func() mathx.Running {
		return func() mathx.Running {
			st, err := sim.MonteCarlo{Seed: seed, Workers: workers}.RunKernelCtx(ctx, run.Kernel, run.Params, plan.Trials)
			if err != nil {
				led.fail("ladder/runner", fmt.Errorf("ladder runner at %d workers: %w", workers, err))
			}
			return st
		}
	}
	rungs := []struct {
		name string
		fn   func() mathx.Running
	}{{"sim.direct", direct}, {"sim.run_w1", runner(1)}, {"sim.run_w2", runner(2)}}
	times := make([]float64, len(rungs))
	var want mathx.RunningSnapshot
	for i, rung := range rungs {
		var ds []float64
		for rep := 0; rep < 3; rep++ {
			octx, end := tr.op(ctx, ladderOp, time.Now())
			_, rend := tr.child(octx, rung.name)
			t0 := time.Now()
			st := rung.fn()
			ds = append(ds, time.Since(t0).Seconds())
			rend()
			end()
			if i == 0 && rep == 0 {
				want = st.Snapshot()
			} else if st.Snapshot() != want {
				led.fail("ladder/"+rung.name, fmt.Errorf("ladder: %s folded a different result than direct batch calls", rung.name))
			}
		}
		times[i] = mathx.Median(ds)
	}
	r.add("sim.chunks", float64(plan.Chunks()), "count")
	r.add("sim.trials", float64(plan.Trials), "count")
	r.add("sim.runner_overhead_frac", times[1]/times[0]-1, "ratio")
	r.add("sim.parallel_eff", times[1]/(2*times[2]), "ratio")
}
