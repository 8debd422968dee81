package crosslayer

import (
	"math"
	"testing"

	"repro/internal/ebtable"
	"repro/internal/energy"
)

func cfg(t *testing.T, deadline float64) Config {
	t.Helper()
	model, err := energy.New(energy.Paper(40e3), ebtable.Analytic{})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Model: model,
		Hops: []Hop{
			{Mt: 2, Mr: 3, IntraD: 1, LinkD: 180},
			{Mt: 3, Mr: 2, IntraD: 1, LinkD: 220},
			{Mt: 2, Mr: 2, IntraD: 1, LinkD: 150},
		},
		BER:        0.001,
		Bits:       12000,
		SymbolRate: 40e3,
		DeadlineS:  deadline,
	}
}

func TestValidate(t *testing.T) {
	good := cfg(t, 5)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Model = nil },
		func(c *Config) { c.Hops = nil },
		func(c *Config) { c.BER = 0 },
		func(c *Config) { c.Bits = 0 },
		func(c *Config) { c.SymbolRate = 0 },
		func(c *Config) { c.DeadlineS = 0 },
	}
	for i, m := range mutations {
		c := cfg(t, 5)
		m(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d should fail", i)
		}
	}
}

func TestUnconstrainedOptimum(t *testing.T) {
	// A huge deadline lets every hop take its energy-optimal b.
	plan, err := Optimize(cfg(t, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Choices) != 3 {
		t.Fatalf("%d choices", len(plan.Choices))
	}
	// Cross-check each hop against exhaustive search.
	c := cfg(t, 1e9)
	for i, h := range c.Hops {
		bestE := math.Inf(1)
		for b := 1; b <= 16; b++ {
			e, err := c.Model.HopEnergy(c.BER, b, h.Mt, h.Mr, h.IntraD, h.LinkD)
			if err != nil {
				continue
			}
			if v := float64(e) * float64(c.Bits); v < bestE {
				bestE = v
			}
		}
		if math.Abs(plan.Choices[i].EnergyJ-bestE) > 1e-12*bestE {
			t.Errorf("hop %d: chose %v J, exhaustive best %v J", i, plan.Choices[i].EnergyJ, bestE)
		}
	}
}

func TestDeadlineMet(t *testing.T) {
	// Squeeze the deadline below the unconstrained plan's airtime.
	loose, err := Optimize(cfg(t, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	tight := cfg(t, loose.TotalTimeS/3)
	plan, err := Optimize(tight)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalTimeS > tight.DeadlineS*(1+1e-9) {
		t.Errorf("plan time %v exceeds deadline %v", plan.TotalTimeS, tight.DeadlineS)
	}
	// The constrained plan costs at least as much energy.
	if plan.TotalEnergyJ < loose.TotalEnergyJ*(1-1e-9) {
		t.Errorf("constrained plan cheaper than unconstrained: %v vs %v",
			plan.TotalEnergyJ, loose.TotalEnergyJ)
	}
	// And must use denser constellations somewhere.
	denser := false
	for i := range plan.Choices {
		if plan.Choices[i].B > loose.Choices[i].B {
			denser = true
		}
	}
	if !denser {
		t.Error("tight deadline should force a denser constellation on some hop")
	}
}

func TestEnergyMonotoneInDeadline(t *testing.T) {
	loose, err := Optimize(cfg(t, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	prevEnergy := math.Inf(1)
	for _, frac := range []float64{0.25, 0.5, 0.8, 1.5} {
		plan, err := Optimize(cfg(t, loose.TotalTimeS*frac))
		if err != nil {
			t.Fatalf("frac %v: %v", frac, err)
		}
		if plan.TotalEnergyJ > prevEnergy*(1+1e-9) {
			t.Errorf("frac %v: looser deadline raised energy %v -> %v", frac, prevEnergy, plan.TotalEnergyJ)
		}
		prevEnergy = plan.TotalEnergyJ
	}
}

func TestInfeasibleDeadline(t *testing.T) {
	c := cfg(t, 1e-9)
	if _, err := Optimize(c); err == nil {
		t.Error("impossible deadline should fail")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Optimize(cfg(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(cfg(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalEnergyJ != b.TotalEnergyJ || a.TotalTimeS != b.TotalTimeS {
		t.Error("optimiser not deterministic")
	}
}
