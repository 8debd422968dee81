// Package adaptive is the sampling-controller tier above sim.MonteCarlo:
// it decides how many trials a kernel run spends, never what any trial
// computes.
//
// Two layers:
//
//   - Confidence intervals (interval.go): Wilson score and
//     Clopper-Pearson binomial intervals for Bernoulli-rate estimators
//     (BER-style kernels, where one trial contributes many bits), plus
//     the CLT normal-approximation interval for general means.
//
//   - Sequential stopping (stop.go, controller.go): a Budget
//     {TargetRelCI, MaxTrials} compiles into a sim.StopRule chosen from
//     the kernel's registry entry — Wilson when the physics declares
//     Bernoulli units, CLT otherwise, the same under every alias — and
//     Run drives sim.MonteCarlo.RunAdaptiveCtx with it. Stopping is
//     evaluated only at chunk boundaries on the merged chunk-prefix
//     statistics, so the chunk-seeded determinism contract is untouched
//     and the realized plan is replayable (sim.PlanTrace, Replay).
//
// The round loop itself lives in sim: rounds go to the sim.Executor
// attached to the context (a cluster coordinator, the campaign
// checkpoint executor) or, without one, to the local chunk pool.
//
// Everything here is deterministic given (seed, kernel, params, budget):
// stopping rules are pure functions of prefix statistics.
package adaptive
