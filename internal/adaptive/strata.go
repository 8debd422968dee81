package adaptive

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Stratum is one cell of a stratified run: a parameter point with its
// population weight (e.g. the probability mass an SNR cell carries in
// the operating distribution). Weights need not be normalized; the
// estimator normalizes them, which is exactly what keeps it unbiased
// under any realized allocation.
type Stratum struct {
	Name   string
	Params map[string]float64
	Weight float64
}

// StratumStats is the realized outcome of one stratum.
type StratumStats struct {
	Name   string
	Stats  mathx.Running
	Chunks int
}

// StratifiedResult is the combined estimate of a stratified adaptive
// run plus everything needed to audit and replay it.
type StratifiedResult struct {
	// Mean is the weight-combined estimate Σ w_s·mean_s.
	Mean float64
	// StdErr is the standard error of Mean: sqrt(Σ w_s²·var_s/n_s).
	StdErr float64
	// Trials is the realized total spend across strata.
	Trials int
	// PerStratum holds each stratum's own statistics, in stratum order.
	PerStratum []StratumStats
	// Trace is the realized plan: Rounds carries cumulative total chunks
	// per stopping round, Strata the final per-stratum chunk counts.
	Trace sim.PlanTrace
}

// CI95 returns the 95% half-width of the combined estimate.
func (r *StratifiedResult) CI95() float64 { return z95 * r.StdErr }

// stratRun is the per-stratum execution state of one stratified run.
type stratRun struct {
	name   string
	run    sim.KernelRun
	mc     sim.MonteCarlo
	stats  mathx.Running
	chunks int
	weight float64 // normalized
}

// RunStratified splits an adaptive budget across strata with
// tail-aware allocation: every stratum gets one pilot chunk, then each
// round's chunks go where w_s·σ_s is largest (Neyman allocation), so
// high-variance and rare-error cells — the deep tail — soak up budget
// that low-variance cells would waste. Stopping follows the budget's
// relative-CI target on the combined estimate.
//
// Determinism: stratum s draws from the s-th seed derived from
// mc.Seed, allocation is a pure function of prefix statistics with
// index-order tie-breaks, and the realized per-stratum chunk counts are
// recorded in the returned trace — ReplayStratified reproduces the
// result bit-identically from them.
func RunStratified(ctx context.Context, mc sim.MonteCarlo, kernel string, strata []Stratum, b Budget) (*StratifiedResult, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if !b.Enabled() {
		return nil, fmt.Errorf("adaptive: stratified run needs an enabled budget")
	}
	runs, err := newStratRuns(mc, kernel, strata, b.MaxTrials)
	if err != nil {
		return nil, err
	}
	budgetChunks := sim.Plan{Trials: b.MaxTrials}.Chunks()
	if budgetChunks < len(runs) {
		return nil, fmt.Errorf("adaptive: budget of %d chunks cannot pilot %d strata", budgetChunks, len(runs))
	}

	ctx, span := obs.StartSpan(ctx, "mc.adaptive.stratified")
	span.SetAttr("kernel", kernel).SetAttr("strata", strconv.Itoa(len(runs)))
	defer span.End()

	progress := obs.ProgressFrom(ctx)
	progress.AddTotal(int64(b.MaxTrials))

	trace := sim.PlanTrace{ChunkSize: sim.ChunkSize, MaxTrials: b.MaxTrials}
	total := 0

	// Pilot round: one chunk per stratum, so every variance estimate
	// exists before any allocation decision.
	alloc := make([]int, len(runs))
	for s := range runs {
		alloc[s] = 1
	}
	for {
		for s := range runs {
			if alloc[s] == 0 {
				continue
			}
			if err := runs[s].extend(ctx, alloc[s]); err != nil {
				return nil, err
			}
			total += alloc[s]
		}
		trace.Rounds = append(trace.Rounds, total)

		mean, se := combine(runs)
		if stopStratified(runs, mean, se, b) {
			trace.Stopped = true
			break
		}
		if total >= budgetChunks {
			break
		}
		// Next round doubles the spend (like the flat adaptive
		// schedule), capped at the remaining budget, and lands it by
		// Neyman shares.
		round := total
		if round > budgetChunks-total {
			round = budgetChunks - total
		}
		alloc = neymanAlloc(runs, round)
	}

	res := finishStratified(runs, trace)
	// Shrink the advertised total to the realized spend, same contract
	// as the flat adaptive driver: done never exceeds total.
	if saved := res.Trace.Saved(); saved > 0 {
		progress.AddTotal(-int64(saved))
	}
	span.SetAttr("trials", strconv.Itoa(res.Trials))
	return res, nil
}

// ReplayStratified re-executes a stratified trace: each stratum runs
// exactly its recorded chunk count, in one round, and the combination
// is the same weight fold — bit-identical to the adaptive run that
// recorded the trace.
func ReplayStratified(ctx context.Context, mc sim.MonteCarlo, kernel string, strata []Stratum, trace sim.PlanTrace) (*StratifiedResult, error) {
	if err := trace.Validate(); err != nil {
		return nil, err
	}
	if len(trace.Strata) != len(strata) {
		return nil, fmt.Errorf("adaptive: trace has %d strata, caller gave %d", len(trace.Strata), len(strata))
	}
	runs, err := newStratRuns(mc, kernel, strata, trace.MaxTrials)
	if err != nil {
		return nil, err
	}
	progress := obs.ProgressFrom(ctx)
	progress.AddTotal(int64(trace.Trials))
	for s := range runs {
		rec := trace.Strata[s]
		if rec.Name != strata[s].Name {
			return nil, fmt.Errorf("adaptive: trace stratum %d is %q, caller gave %q", s, rec.Name, strata[s].Name)
		}
		if err := runs[s].extend(ctx, rec.Chunks); err != nil {
			return nil, err
		}
	}
	return finishStratified(runs, trace), nil
}

// newStratRuns validates strata, normalizes weights and derives the
// per-stratum seeds and kernel runs.
func newStratRuns(mc sim.MonteCarlo, kernel string, strata []Stratum, maxTrials int) ([]stratRun, error) {
	if len(strata) == 0 {
		return nil, fmt.Errorf("adaptive: no strata")
	}
	var wsum float64
	for _, s := range strata {
		if s.Weight <= 0 || math.IsNaN(s.Weight) || math.IsInf(s.Weight, 0) {
			return nil, fmt.Errorf("adaptive: stratum %q has weight %v", s.Name, s.Weight)
		}
		wsum += s.Weight
	}
	seeds := mathx.DeriveSeeds(mc.Seed, len(strata))
	runs := make([]stratRun, len(strata))
	for i, s := range strata {
		if _, err := sim.NewKernelBatch(kernel, s.Params); err != nil {
			return nil, fmt.Errorf("adaptive: stratum %q: %w", s.Name, err)
		}
		runs[i] = stratRun{
			name:   s.Name,
			run:    sim.KernelRun{Kernel: kernel, Params: s.Params, Seed: seeds[i], Trials: maxTrials},
			mc:     sim.MonteCarlo{Seed: seeds[i], Workers: mc.Workers},
			weight: s.Weight / wsum,
		}
	}
	return runs, nil
}

// extend runs the stratum's next n chunks (prefix [chunks, chunks+n))
// and folds them into its statistics in chunk order.
func (r *stratRun) extend(ctx context.Context, n int) error {
	if n <= 0 {
		return nil
	}
	lo, hi := r.chunks, r.chunks+n
	var parts []mathx.Running
	var err error
	if ex := sim.ExecutorFrom(ctx); ex != nil {
		parts, err = ex.RunChunkRange(ctx, r.run, lo, hi)
		if err == nil && len(parts) != n {
			err = fmt.Errorf("adaptive: executor returned %d partials for [%d, %d)", len(parts), lo, hi)
		}
	} else {
		parts, err = r.mc.RunKernelChunksCtx(ctx, r.run.Kernel, r.run.Params, r.run.Trials, lo, hi)
	}
	if err != nil {
		return err
	}
	for _, p := range parts {
		r.stats.Merge(p)
	}
	r.chunks = hi
	return nil
}

// combine folds the per-stratum statistics into the reweighted
// estimator: mean = Σ w_s·m_s, se² = Σ w_s²·var_s/n_s. The weights are
// the declared population weights, not the realized sample shares —
// that substitution is the whole unbiasedness argument, checked by the
// A/B test.
func combine(runs []stratRun) (mean, se float64) {
	var v float64
	for i := range runs {
		r := &runs[i]
		mean += r.weight * r.stats.Mean()
		if n := r.stats.N(); n > 0 {
			v += r.weight * r.weight * r.stats.Variance() / float64(n)
		}
	}
	return mean, math.Sqrt(v)
}

// stopStratified applies the budget's relative-CI target to the
// combined estimate, with the same floors the flat rules use.
func stopStratified(runs []stratRun, mean, se float64, b Budget) bool {
	var n int64
	for i := range runs {
		n += runs[i].stats.N()
	}
	min := int64(b.MinTrials)
	if min < cltMinTrials {
		min = cltMinTrials
	}
	if n < min || mean == 0 {
		return false
	}
	return z95*se <= b.TargetRelCI*math.Abs(mean)
}

// neymanAlloc apportions round chunks by Neyman shares w_s·σ_s,
// flooring each σ at 5% of the largest so a stratum that has seen no
// errors yet keeps receiving exploration budget. Integer apportionment
// is largest-remainder with index-order tie-breaks — fully
// deterministic.
func neymanAlloc(runs []stratRun, round int) []int {
	shares := make([]float64, len(runs))
	var maxSD float64
	for i := range runs {
		if sd := runs[i].stats.StdDev(); sd > maxSD {
			maxSD = sd
		}
	}
	floor := maxSD * 0.05
	if maxSD == 0 {
		// No stratum has any variance yet; explore uniformly.
		floor = 1
	}
	var sum float64
	for i := range runs {
		sd := runs[i].stats.StdDev()
		if sd < floor {
			sd = floor
		}
		shares[i] = runs[i].weight * sd
		sum += shares[i]
	}
	alloc := make([]int, len(runs))
	type frac struct {
		i int
		f float64
	}
	fracs := make([]frac, len(runs))
	given := 0
	for i := range runs {
		exact := float64(round) * shares[i] / sum
		alloc[i] = int(exact)
		given += alloc[i]
		fracs[i] = frac{i: i, f: exact - float64(alloc[i])}
	}
	sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].f > fracs[b].f })
	for k := 0; given < round; k++ {
		alloc[fracs[k%len(fracs)].i]++
		given++
	}
	return alloc
}

// finishStratified assembles the result, completes the trace and
// accounts saved budget.
func finishStratified(runs []stratRun, trace sim.PlanTrace) *StratifiedResult {
	res := &StratifiedResult{PerStratum: make([]StratumStats, len(runs))}
	trace.Strata = make([]sim.StratumAlloc, len(runs))
	for i := range runs {
		r := &runs[i]
		res.PerStratum[i] = StratumStats{Name: r.name, Stats: r.stats, Chunks: r.chunks}
		trace.Strata[i] = sim.StratumAlloc{Name: r.name, Chunks: r.chunks}
		res.Trials += int(r.stats.N())
	}
	res.Mean, res.StdErr = combine(runs)
	trace.Trials = res.Trials
	res.Trace = trace
	return res
}
