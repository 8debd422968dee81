package sim

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/mathx"
	"repro/internal/obs"
)

// mcTrialsSaved counts budgeted trials adaptive runs did not have to
// spend because their stopping rule fired early.
var mcTrialsSaved = obs.Default.Counter("cogmimod_mc_trials_saved_total",
	"Monte-Carlo trials saved by adaptive early stopping, summed over all runs.")

// A StopRule decides, from the statistics of the chunk prefix executed
// so far, whether an adaptive run has met its accuracy target. It is
// consulted only at chunk boundaries — between rounds, on the merged
// prefix — so the chunk-seeded determinism contract is untouched: the
// rule chooses how many chunks run, never what any chunk computes.
// Implementations must be pure functions of the prefix statistics; that
// is what makes a recorded PlanTrace replayable.
type StopRule interface {
	Done(prefix mathx.Running) bool
}

// AdaptiveResult pairs the statistics of an adaptive run with the
// realized chunk plan that produced them.
type AdaptiveResult struct {
	Stats mathx.Running
	Trace PlanTrace
}

// adaptiveRound is the growth schedule of the stopping rounds: the
// cumulative chunk target doubles each round (1, 2, 4, ...), so a run
// that stops early has spent at most 2x the minimum prefix that meets
// the target, while a run that exhausts the budget pays only
// O(log chunks) stopping evaluations.
func adaptiveRound(prev, chunks int) int {
	next := prev * 2
	if prev == 0 {
		next = 1
	}
	if next > chunks {
		next = chunks
	}
	return next
}

// RunAdaptiveCtx executes a registered kernel under a trial budget with
// sequential stopping: chunks run in rounds of doubling size, the
// merged chunk-prefix statistics are handed to stop at every round
// boundary, and the run ends as soon as the rule reports done (or the
// budget is exhausted). The executed prefix is exactly a prefix of the
// budget's Plan — same chunk seeds, same chunk lengths, same fold
// order — so the result for a given realized chunk count is
// bit-identical to a fixed run of that prefix, and the returned
// PlanTrace makes the realized count reproducible (RunTraceCtx).
//
// Rounds go to the Executor attached to ctx, or to the local pool.
// Progress accounting: the full budget is reported up front (the honest
// expectation until the rule fires) and shrunk by the saved trials at
// stop, keeping done <= total throughout. A nil stop degenerates to a
// fixed-budget run with round-boundary bookkeeping.
func (mc MonteCarlo) RunAdaptiveCtx(ctx context.Context, kernel string, params map[string]float64, maxTrials int, stop StopRule) (AdaptiveResult, error) {
	run := KernelRun{Kernel: kernel, Params: params, Seed: mc.Seed, Trials: maxTrials}
	chunks := run.Plan().Chunks()
	if chunks == 0 {
		return AdaptiveResult{}, fmt.Errorf("sim: adaptive run needs a positive trial budget, got %d", maxTrials)
	}
	// Build the trial function up front even when an executor will do
	// the work: parameter errors must surface before any round is
	// dispatched.
	if _, err := newKernelTrial(kernel, params); err != nil {
		return AdaptiveResult{}, err
	}

	ctx, span := obs.StartSpan(ctx, "mc.adaptive")
	span.SetAttr("kernel", kernel).SetAttr("max_trials", strconv.Itoa(maxTrials))
	defer span.End()

	trace := PlanTrace{ChunkSize: ChunkSize, MaxTrials: maxTrials}
	stats, rounds, err := mc.runRounds(ctx, run, maxTrials, func(lo int, prefix mathx.Running) int {
		if lo > 0 && stop != nil && stop.Done(prefix) {
			trace.Stopped = true
			return lo
		}
		return adaptiveRound(lo, chunks)
	})
	if err != nil {
		return AdaptiveResult{}, err
	}
	trace.Rounds = rounds
	trace.Trials = realizedTrials(maxTrials, trace.Chunks())
	if saved := trace.Saved(); saved > 0 {
		obs.ProgressFrom(ctx).AddTotal(-int64(saved))
		mcTrialsSaved.Add(int64(saved))
	}
	span.SetAttr("trials", strconv.Itoa(trace.Trials)).
		SetAttr("rounds", strconv.Itoa(len(trace.Rounds)))
	return AdaptiveResult{Stats: stats, Trace: trace}, nil
}

// RunTraceCtx replays a recorded PlanTrace: it executes exactly the
// traced rounds of the original budget's Plan, with no stopping-rule
// evaluation, and returns statistics bit-identical to the adaptive run
// that recorded the trace. The MonteCarlo seed must be the one the
// trace was recorded under — the trace pins the chunk counts, the seed
// pins the chunk streams. Progress reports the realized trials only.
func (mc MonteCarlo) RunTraceCtx(ctx context.Context, kernel string, params map[string]float64, trace PlanTrace) (AdaptiveResult, error) {
	if err := trace.Validate(); err != nil {
		return AdaptiveResult{}, err
	}
	// Trials = MaxTrials reconstructs the original plan: chunk seeds and
	// the final chunk's length depend on the budget, not the spend.
	run := KernelRun{Kernel: kernel, Params: params, Seed: mc.Seed, Trials: trace.MaxTrials}
	if _, err := newKernelTrial(kernel, params); err != nil {
		return AdaptiveResult{}, err
	}

	ctx, span := obs.StartSpan(ctx, "mc.replay")
	span.SetAttr("kernel", kernel).SetAttr("trials", strconv.Itoa(trace.Trials))
	defer span.End()

	round := 0
	stats, _, err := mc.runRounds(ctx, run, trace.Trials, func(lo int, _ mathx.Running) int {
		if round == len(trace.Rounds) {
			return lo
		}
		round++
		return trace.Rounds[round-1]
	})
	if err != nil {
		return AdaptiveResult{}, err
	}
	return AdaptiveResult{Stats: stats, Trace: trace}, nil
}
