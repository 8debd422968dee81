// Package adaptive is the sampling-controller tier above sim.MonteCarlo:
// it decides how many trials a kernel run spends, never what any trial
// computes.
//
// Three layers:
//
//   - Confidence intervals (interval.go): Wilson score and
//     Clopper-Pearson binomial intervals for Bernoulli-rate estimators
//     (BER-style kernels, where one trial contributes many bits), plus
//     the CLT normal-approximation interval for general means.
//
//   - Sequential stopping (stop.go, controller.go): a Budget
//     {TargetRelCI, MaxTrials} compiles into a sim.StopRule chosen from
//     the kernel's registered capabilities, and Run drives
//     sim.MonteCarlo.RunAdaptiveCtx with it. Stopping is evaluated only
//     at chunk boundaries on the merged chunk-prefix statistics, so the
//     chunk-seeded determinism contract is untouched and the realized
//     plan is replayable (sim.PlanTrace, Replay).
//
//   - Tail-aware stratification (strata.go): RunStratified splits a
//     budget across parameter strata (e.g. SNR cells), pilots each one,
//     and shifts subsequent rounds toward high-variance strata by
//     Neyman allocation. The estimator reweights by the declared
//     stratum weights, so it stays unbiased no matter how the realized
//     allocation tilted — the property pinned by the A/B estimator
//     test.
//
// Rounds of flat and stratified runs alike go to the sim.Executor
// attached to the context (a cluster coordinator, the campaign
// checkpoint executor) or, without one, to the local chunk pool.
//
// Everything here is deterministic given (seed, kernel, params, budget):
// stopping rules are pure functions of prefix statistics, stratum seeds
// derive from the master seed, and integer chunk apportionment breaks
// ties by stratum index.
package adaptive
