package adaptive

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/sim"
)

func init() {
	// Test kernels for this package's contract tests. atest.bernoulli
	// emits per-trial error rates over "units" Bernoulli draws at rate
	// "p" — a miniature BER kernel; atest.mean emits Uniform(0, 2*"mu").
	sim.RegisterKernel("atest.bernoulli", sim.Kernel{Build: func(params map[string]float64) (sim.TrialFunc, error) {
		p := params["p"]
		units := int(params["units"])
		if units <= 0 {
			units = 16
		}
		return func(seeds []int64, vals []float64) {
			for i, s := range seeds {
				st := uint64(s)
				errs := 0
				for u := 0; u < units; u++ {
					if unitFloat(&st) < p {
						errs++
					}
				}
				vals[i] = float64(errs) / float64(units)
			}
		}, nil
	}, BernoulliUnits: func(params map[string]float64) float64 {
		if u := params["units"]; u > 0 {
			return u
		}
		return 16
	}})
	sim.RegisterKernel("atest.mean", sim.Kernel{Build: func(params map[string]float64) (sim.TrialFunc, error) {
		mu := params["mu"]
		return func(seeds []int64, vals []float64) {
			for i, s := range seeds {
				st := uint64(s)
				vals[i] = 2 * mu * unitFloat(&st)
			}
		}, nil
	}})
}

// unitFloat advances a splitmix64 state and maps the draw to [0, 1):
// the test kernels derive each trial's draws from its seed this way.
func unitFloat(state *uint64) float64 {
	return float64(mathx.SplitMix64(state)>>11) / (1 << 53)
}

func TestBudgetValidate(t *testing.T) {
	for _, tc := range []struct {
		b  Budget
		ok bool
	}{
		{Budget{}, true}, // disabled is fine
		{Budget{TargetRelCI: 0.05, MaxTrials: 1000}, true},
		{Budget{TargetRelCI: 1.5, MaxTrials: 1000}, false},
		{Budget{TargetRelCI: 0.05, MaxTrials: 100, MinTrials: 200}, false},
		{Budget{TargetRelCI: 0.05}, false}, // a target needs a cap
		{Budget{MaxTrials: 100}, true},     // a cap alone is a fixed budget
		{Budget{TargetRelCI: 0.05, MaxTrials: MaxBudgetTrials}, true},
		{Budget{TargetRelCI: 0.05, MaxTrials: MaxBudgetTrials + 1}, false},
		{Budget{TargetRelCI: 0.05, MaxTrials: math.MaxInt}, false},
	} {
		err := tc.b.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", tc.b, err, tc.ok)
		}
	}
	if (Budget{TargetRelCI: 0.05}).Enabled() {
		t.Error("budget without MaxTrials reports enabled")
	}
	if (Budget{MaxTrials: 100}).Enabled() {
		t.Error("budget without TargetRelCI reports enabled")
	}
}

// TestRuleForSelection: Bernoulli-capable kernels get the Wilson rule
// with the kernel's own units under every registered name, including
// the BER physics' legacy aliases; everything else gets CLT.
func TestRuleForSelection(t *testing.T) {
	b := Budget{TargetRelCI: 0.1, MaxTrials: 10000, MinTrials: 128}
	r := b.RuleFor("atest.bernoulli", map[string]float64{"units": 64})
	w, ok := r.(WilsonRule)
	if !ok {
		t.Fatalf("RuleFor(bernoulli kernel) = %T, want WilsonRule", r)
	}
	if w.UnitsPerTrial != 64 || w.Target != 0.1 || w.MinTrials != 128 {
		t.Fatalf("WilsonRule misconfigured: %+v", w)
	}
	for _, tc := range []struct {
		kernel string
		params map[string]float64
		units  float64
	}{
		{"coop.ber", map[string]float64{"bits": 128}, 128},
		{"coop.ber.batch", map[string]float64{"bits": 128}, 128},
		{"coop.ber.adaptive", map[string]float64{"bits": 128}, 128},
		{"multihop.ber", map[string]float64{"bits": 100}, 102},
		{"multihop.ber.batch", map[string]float64{"bits": 100}, 102},
	} {
		w, ok := b.RuleFor(tc.kernel, tc.params).(WilsonRule)
		if !ok || w.UnitsPerTrial != tc.units {
			t.Errorf("RuleFor(%s) = %+v, want WilsonRule over %g units", tc.kernel, b.RuleFor(tc.kernel, tc.params), tc.units)
		}
	}
	for _, kernel := range []string{"atest.mean", "cellfree.se", "cellfree.se.mmse"} {
		if _, ok := b.RuleFor(kernel, nil).(CLTRule); !ok {
			t.Fatalf("RuleFor(%s) not a CLTRule", kernel)
		}
	}
	if _, ok := b.RuleFor("no.such.kernel", nil).(CLTRule); !ok {
		t.Fatal("RuleFor(unknown kernel) should fall back to CLT")
	}
	if (Budget{}).RuleFor("atest.mean", nil) != nil {
		t.Fatal("disabled budget should compile to a nil rule")
	}
}

func TestCLTRuleFloors(t *testing.T) {
	r := CLTRule{Target: 0.5}
	var tight mathx.Running
	for i := 0; i < cltMinTrials-1; i++ {
		tight.Add(1.0) // zero variance: would stop instantly if allowed
	}
	if r.Done(tight) {
		t.Fatal("CLT rule stopped below the absolute trial floor")
	}
	tight.Add(1.0)
	if !r.Done(tight) {
		t.Fatal("CLT rule refused a zero-variance prefix at the floor")
	}
	var zero mathx.Running
	for i := 0; i < 2*cltMinTrials; i++ {
		zero.Add(0)
	}
	if r.Done(zero) {
		t.Fatal("CLT rule certified a zero mean")
	}
}

func TestWilsonRuleFloors(t *testing.T) {
	r := WilsonRule{Target: 0.5, UnitsPerTrial: 100}
	// 4 errors over 10000 units: below wilsonMinErrors, must not stop
	// however tight the interval looks.
	var few mathx.Running
	for i := 0; i < 100; i++ {
		x := 0.0
		if i == 0 {
			x = 0.04 // the only errored trial: 4 of its 100 units
		}
		few.Add(x)
	}
	if r.Done(few) {
		t.Fatal("Wilson rule stopped with fewer than wilsonMinErrors errors")
	}
	// Plenty of errors at a loose target: stops.
	var many mathx.Running
	for i := 0; i < 1000; i++ {
		many.Add(0.1)
	}
	if !r.Done(many) {
		t.Fatal("Wilson rule refused 10000 errors in 100000 units at ±50%")
	}
	if r.Done(mathx.Running{}) {
		t.Fatal("Wilson rule stopped an empty prefix")
	}
}
