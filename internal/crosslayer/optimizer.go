// Package crosslayer jointly picks per-hop constellation sizes along a
// CoMIMONet route to minimise total energy under an end-to-end latency
// budget — the "multiple optimizations" cross-layer design of the
// paper's CoMIMONet reference [9], expressed over this repository's
// energy (internal/energy) and timing (internal/coop) models.
//
// The trade is real: small constellations are energy-cheap on the PA
// (eq. 3's ēb falls with b at fixed BER... and the circuit term rises),
// but each hop's airtime scales as 1/b, so a tight deadline forces
// denser constellations somewhere. The optimiser solves the coupled
// choice with a Lagrangian sweep: for a price lambda on time, each hop
// independently minimises energy + lambda * time; bisection on lambda
// finds the cheapest plan meeting the deadline.
package crosslayer

import (
	"fmt"
	"math"

	"repro/internal/coop"
	"repro/internal/energy"
)

// Hop is one route segment.
type Hop struct {
	// Mt and Mr are the endpoint cluster sizes used for cooperation.
	Mt, Mr int
	// IntraD and LinkD are the cluster span and hop length in metres.
	IntraD, LinkD float64
}

// Config describes the optimisation.
type Config struct {
	// Model prices the energy.
	Model *energy.Model
	// Hops in path order.
	Hops []Hop
	// BER is the per-hop target.
	BER float64
	// Bits is the payload size.
	Bits int
	// SymbolRate is the link symbol rate (symbols/s).
	SymbolRate float64
	// DeadlineS is the end-to-end airtime budget in seconds.
	DeadlineS float64
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.Model == nil:
		return fmt.Errorf("crosslayer: nil energy model")
	case len(c.Hops) == 0:
		return fmt.Errorf("crosslayer: empty route")
	case c.BER <= 0 || c.BER >= 1:
		return fmt.Errorf("crosslayer: BER %g outside (0, 1)", c.BER)
	case c.Bits < 1:
		return fmt.Errorf("crosslayer: bit count %d must be positive", c.Bits)
	case c.SymbolRate <= 0:
		return fmt.Errorf("crosslayer: symbol rate %g must be positive", c.SymbolRate)
	case c.DeadlineS <= 0:
		return fmt.Errorf("crosslayer: deadline %g must be positive", c.DeadlineS)
	}
	return nil
}

// option is one feasible (b, energy, time) point for a hop.
type option struct {
	b      int
	energy float64
	time   float64
}

// HopChoice is the optimiser's decision for one hop.
type HopChoice struct {
	B       int
	EnergyJ float64
	TimeS   float64
}

// Plan is the optimised route schedule.
type Plan struct {
	Choices []HopChoice
	// TotalEnergyJ for the payload across all hops and nodes.
	TotalEnergyJ float64
	// TotalTimeS is the end-to-end airtime.
	TotalTimeS float64
}

// Optimize finds the minimum-energy per-hop constellation assignment
// meeting the deadline, or an error when even the fastest feasible
// assignment misses it.
func Optimize(cfg Config) (Plan, error) {
	if err := cfg.Validate(); err != nil {
		return Plan{}, err
	}
	menus := make([][]option, len(cfg.Hops))
	for i, h := range cfg.Hops {
		menu, err := hopMenu(cfg, h)
		if err != nil {
			return Plan{}, fmt.Errorf("crosslayer: hop %d: %w", i, err)
		}
		menus[i] = menu
	}

	plan := assemble(menus, 0)
	if plan.TotalTimeS <= cfg.DeadlineS {
		return plan, nil // the unconstrained optimum already fits
	}
	// Check feasibility at the fastest corner.
	fastest := assemble(menus, math.Inf(1))
	if fastest.TotalTimeS > cfg.DeadlineS {
		return Plan{}, fmt.Errorf("crosslayer: deadline %.4gs infeasible; fastest plan needs %.4gs",
			cfg.DeadlineS, fastest.TotalTimeS)
	}
	// Bisection on the time price.
	lo, hi := 0.0, 1.0
	for assemble(menus, hi).TotalTimeS > cfg.DeadlineS {
		hi *= 4
		if hi > 1e30 {
			return fastest, nil
		}
	}
	for iter := 0; iter < 200 && hi-lo > 1e-12*hi; iter++ {
		mid := (lo + hi) / 2
		if assemble(menus, mid).TotalTimeS > cfg.DeadlineS {
			lo = mid
		} else {
			hi = mid
		}
	}
	return assemble(menus, hi), nil
}

// hopMenu enumerates the feasible constellation options for one hop.
func hopMenu(cfg Config, h Hop) ([]option, error) {
	var menu []option
	for b := 1; b <= cfg.Model.P.BMax; b++ {
		e, err := cfg.Model.HopEnergy(cfg.BER, b, h.Mt, h.Mr, h.IntraD, h.LinkD)
		if err != nil {
			continue
		}
		t, err := coop.HopTiming(h.Mt, h.Mr, b, cfg.Bits, cfg.SymbolRate)
		if err != nil {
			continue
		}
		menu = append(menu, option{b: b, energy: float64(e) * float64(cfg.Bits), time: t.Total()})
	}
	if len(menu) == 0 {
		return nil, fmt.Errorf("no feasible constellation at BER %g", cfg.BER)
	}
	return menu, nil
}

// assemble picks each hop's best option at time price lambda. Ties
// break toward less time, so the plan is deterministic and bisection is
// monotone. lambda = +Inf selects the fastest option per hop.
func assemble(menus [][]option, lambda float64) Plan {
	p := Plan{Choices: make([]HopChoice, len(menus))}
	for i, menu := range menus {
		best := menu[0]
		bestCost := cost(best, lambda)
		for _, o := range menu[1:] {
			c := cost(o, lambda)
			if c < bestCost || (c == bestCost && o.time < best.time) {
				best, bestCost = o, c
			}
		}
		p.Choices[i] = HopChoice{B: best.b, EnergyJ: best.energy, TimeS: best.time}
		p.TotalEnergyJ += best.energy
		p.TotalTimeS += best.time
	}
	return p
}

func cost(o option, lambda float64) float64 {
	if math.IsInf(lambda, 1) {
		return o.time
	}
	return o.energy + lambda*o.time
}
