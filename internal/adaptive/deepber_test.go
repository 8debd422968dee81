package adaptive

import (
	"context"
	"math"
	"testing"

	"repro/internal/sim"

	_ "repro/internal/simkern" // register coop.ber
)

// TestDeepBERStopsEarly is the end-to-end promise of adaptive budgets on
// a deep-BER point (one 2x2 cooperative cell at 6 dB): the Wilson rule
// stops only once the relative 95% half-width is inside ±10%, the
// realized spend is at least 10x below the fixed budget, and the
// full-budget fixed run agrees with the adaptive estimate within 5
// combined standard errors — the same answer for a fraction of the
// trials. Replay identity, serial and across a cluster with a killed
// worker, is pinned by TestReplayFuzz and TestAdaptiveRunAcrossCluster.
func TestDeepBERStopsEarly(t *testing.T) {
	const (
		kernel = "coop.ber"
		bits   = 64
	)
	params := map[string]float64{"mt": 2, "mr": 2, "snr_db": 6, "bits": bits}
	budget := Budget{TargetRelCI: 0.10, MaxTrials: 64 * sim.ChunkSize}
	mc := sim.MonteCarlo{Seed: 1}

	res, err := Run(context.Background(), mc, kernel, params, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Trace.Stopped {
		t.Fatalf("budget of %d trials exhausted without meeting ±%g%%", budget.MaxTrials, 100*budget.TargetRelCI)
	}
	p := res.Stats.Mean()
	units := float64(res.Stats.N()) * bits
	lo, hi := Wilson(p*units, units, Z95)
	if rel := (hi - lo) / 2 / p; rel > budget.TargetRelCI {
		t.Fatalf("stopped with relative CI %.3f > target %.3f", rel, budget.TargetRelCI)
	}
	if gain := float64(budget.MaxTrials) / float64(res.Trace.Trials); gain < 10 {
		t.Fatalf("trials-to-target gain %.1fx < 10x (realized %d of %d)", gain, res.Trace.Trials, budget.MaxTrials)
	}

	fixed, err := mc.RunKernelCtx(context.Background(), kernel, params, budget.MaxTrials)
	if err != nil {
		t.Fatal(err)
	}
	tol := 5 * math.Hypot(res.Stats.StdErr(), fixed.StdErr())
	if diff := math.Abs(fixed.Mean() - p); diff > tol {
		t.Fatalf("fixed-budget BER %.3e vs adaptive %.3e: |diff| %.2e > 5-sigma tolerance %.2e",
			fixed.Mean(), p, diff, tol)
	}
}
