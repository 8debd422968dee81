package adaptive

import (
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/sim"
)

// Budget is the user-facing adaptive contract: keep sampling until the
// 95% confidence half-width shrinks below TargetRelCI times the
// estimate, but never beyond MaxTrials. The zero Budget is disabled —
// every existing fixed-budget caller stays byte-identical.
type Budget struct {
	// TargetRelCI is the target relative half-width of the 95% CI,
	// e.g. 0.05 stops once the estimate is known to ±5%.
	TargetRelCI float64
	// MaxTrials caps the spend; the run degrades to a fixed budget of
	// MaxTrials when the target is never met.
	MaxTrials int
	// MinTrials optionally floors the spend so a lucky early prefix
	// cannot stop a run before the estimator has settled. 0 applies
	// only the rules' own sanity floors.
	MinTrials int
}

// MaxBudgetTrials is the largest MaxTrials an enabled budget may ask
// for: 8192 chunks, 16x the largest budget the README documents. It
// keeps every budgeted plan and every report's budget arithmetic far
// from int overflow, and bounds what one request can make a node spend
// on one cell.
const MaxBudgetTrials = 1 << 24

// Enabled reports whether the budget asks for adaptive execution.
func (b Budget) Enabled() bool { return b.TargetRelCI > 0 && b.MaxTrials > 0 }

// Validate rejects budgets that could never stop or never start, a
// target without a trial cap, which would otherwise run silently as a
// fixed budget, and a cap above MaxBudgetTrials.
func (b Budget) Validate() error {
	if b.TargetRelCI > 0 && b.MaxTrials <= 0 {
		return fmt.Errorf("adaptive: target relative CI %g needs a positive max trials to bound the spend", b.TargetRelCI)
	}
	if !b.Enabled() {
		return nil
	}
	if b.TargetRelCI >= 1 {
		return fmt.Errorf("adaptive: target relative CI %g >= 1", b.TargetRelCI)
	}
	if b.MaxTrials > MaxBudgetTrials {
		return fmt.Errorf("adaptive: max trials %d exceeds the ceiling %d", b.MaxTrials, MaxBudgetTrials)
	}
	if b.MinTrials > b.MaxTrials {
		return fmt.Errorf("adaptive: min trials %d exceeds budget %d", b.MinTrials, b.MaxTrials)
	}
	return nil
}

// RuleFor compiles the budget into the stopping rule appropriate for a
// registered kernel: a Wilson binomial rule when the kernel's physics
// declares Bernoulli units (BER-style rates, where one trial carries
// many bits), the CLT rule otherwise. Aliases resolve to their
// physics, so every name of a kernel compiles to the same rule. A
// disabled budget compiles to nil, which sim.RunAdaptiveCtx treats as
// "run the whole budget".
func (b Budget) RuleFor(kernel string, params map[string]float64) sim.StopRule {
	if !b.Enabled() {
		return nil
	}
	if k, ok := sim.LookupKernel(kernel); ok && k.BernoulliUnits != nil {
		if u := k.BernoulliUnits(params); u > 0 {
			return WilsonRule{Target: b.TargetRelCI, UnitsPerTrial: u, MinTrials: int64(b.MinTrials)}
		}
	}
	return CLTRule{Target: b.TargetRelCI, MinTrials: int64(b.MinTrials)}
}

// CLTRule stops a mean estimator once the normal-approximation 95%
// half-width falls below Target times the absolute mean. It is the
// right rule when the per-trial observable is a general real value
// (spectral efficiency, latency); for tiny Bernoulli rates its variance
// estimate is noisy and WilsonRule should be used instead.
type CLTRule struct {
	// Target is the relative half-width to reach.
	Target float64
	// MinTrials floors the prefix length before stopping may trigger.
	MinTrials int64
}

// cltMinTrials is the absolute floor: below this the sample variance is
// too unstable to certify anything.
const cltMinTrials = 64

// Done implements sim.StopRule.
func (r CLTRule) Done(prefix mathx.Running) bool {
	min := r.MinTrials
	if min < cltMinTrials {
		min = cltMinTrials
	}
	if prefix.N() < min {
		return false
	}
	m := math.Abs(prefix.Mean())
	if m == 0 {
		return false
	}
	return prefix.CI95() <= r.Target*m
}

// WilsonRule stops a Bernoulli-rate estimator once the Wilson 95%
// interval half-width falls below Target times the observed rate. The
// prefix mean is interpreted as a rate over N()*UnitsPerTrial Bernoulli
// units — e.g. a BER over trials*bits transmitted bits — which is what
// makes stopping sound in the deep tail where per-trial CLT variance
// would need millions of trials to stabilise.
type WilsonRule struct {
	// Target is the relative half-width to reach.
	Target float64
	// UnitsPerTrial converts trials to Bernoulli units.
	UnitsPerTrial float64
	// MinTrials floors the prefix length before stopping may trigger.
	MinTrials int64
}

// wilsonMinErrors is the floor on observed errors: with fewer, the rate
// estimate is dominated by discreteness and no interval is trustworthy.
const wilsonMinErrors = 5

// Done implements sim.StopRule.
func (r WilsonRule) Done(prefix mathx.Running) bool {
	if prefix.N() < r.MinTrials {
		return false
	}
	n := float64(prefix.N()) * r.UnitsPerTrial
	p := prefix.Mean()
	if n <= 0 || p <= 0 {
		return false
	}
	k := p * n
	if k < wilsonMinErrors {
		return false
	}
	lo, hi := Wilson(k, n, z95)
	return (hi-lo)/2 <= r.Target*p
}
