// Package underlay implements Algorithm 2 and the Section 6.2 analysis:
// cooperative multi-hop data transport inside the secondary network —
// local broadcast in the transmit cluster, a long-haul mt-by-mr MIMO
// hop, local collection in the receive cluster — accounting the
// power-amplifier energy that must stay below the noise floor at the
// primary receiver.
package underlay

import (
	"fmt"
	"math"

	"repro/internal/energy"
	"repro/internal/units"
)

// Config describes one cooperative hop.
type Config struct {
	// Model is the energy model.
	Model *energy.Model
	// Mt and Mr are the cooperating transmitter/receiver counts.
	Mt, Mr int
	// IntraD is the intra-cluster distance d (largest member spacing).
	IntraD float64
	// LinkD is the long-haul hop length D.
	LinkD float64
	// BER is the end-to-end bit-error-rate target p_b.
	BER float64
}

// Validate rejects nonsensical configurations.
func (c Config) Validate() error {
	switch {
	case c.Model == nil:
		return fmt.Errorf("underlay: nil energy model")
	case c.Mt < 1 || c.Mr < 1:
		return fmt.Errorf("underlay: antenna counts %dx%d must be positive", c.Mt, c.Mr)
	case c.IntraD <= 0 && (c.Mt > 1 || c.Mr > 1):
		return fmt.Errorf("underlay: intra-cluster distance %g must be positive for cooperation", c.IntraD)
	case c.LinkD <= 0:
		return fmt.Errorf("underlay: link length %g must be positive", c.LinkD)
	case c.BER <= 0 || c.BER >= 1:
		return fmt.Errorf("underlay: BER %g outside (0, 1)", c.BER)
	}
	return nil
}

// HopReport itemises Algorithm 2's three steps for the chosen
// constellation size.
type HopReport struct {
	// B is the constellation that minimises the total PA energy.
	B int
	// LocalTxPA is e_PA^Lt: the PA energy of one intra-cluster broadcast.
	LocalTxPA units.JoulePerBit
	// MIMOTxPA is e_PA^MIMOt per transmitting node on the long-haul hop.
	MIMOTxPA units.JoulePerBit
	// TotalPA is the summed PA energy of all SU nodes for one bit through
	// the hop: step 1's broadcast (if mt > 1), step 2's mt simultaneous
	// transmissions, and step 3's mr-1 sequential local forwards
	// (if mr > 1).
	TotalPA units.JoulePerBit
	// PeakPA is max(e_PA^Lt, mt * e_PA^MIMOt): the largest PA energy
	// radiated at any single moment — Section 4's E_PA bound.
	PeakPA units.JoulePerBit
	// TotalEnergy adds the circuit costs of every node involved.
	TotalEnergy units.JoulePerBit
}

// Analyze runs Algorithm 2's accounting, choosing b to minimise the
// total PA energy (the underlay criterion of Section 6.2).
func Analyze(cfg Config) (HopReport, error) {
	if err := cfg.Validate(); err != nil {
		return HopReport{}, err
	}
	best := HopReport{B: -1, TotalPA: units.JoulePerBit(math.Inf(1))}
	var lastErr error
	for b := 1; b <= cfg.Model.P.BMax; b++ {
		r, err := analyzeAtB(cfg, b)
		if err != nil {
			lastErr = err
			continue
		}
		if r.TotalPA < best.TotalPA {
			best = r
		}
	}
	if best.B < 0 {
		return HopReport{}, fmt.Errorf("underlay: no feasible constellation: %w", lastErr)
	}
	return best, nil
}

// analyzeAtB evaluates one constellation choice.
func analyzeAtB(cfg Config, b int) (HopReport, error) {
	m := cfg.Model
	r := HopReport{B: b}

	mimoTx, err := m.MIMOTx(cfg.BER, b, cfg.Mt, cfg.Mr, cfg.LinkD)
	if err != nil {
		return r, err
	}
	r.MIMOTxPA = mimoTx.PA

	var localTx energy.Cost
	if cfg.Mt > 1 || cfg.Mr > 1 {
		localTx, err = m.LocalTx(cfg.BER, b, cfg.IntraD)
		if err != nil {
			return r, err
		}
		r.LocalTxPA = localTx.PA
	}

	// Step 2: all mt nodes radiate simultaneously.
	stepTwoPA := units.JoulePerBit(float64(cfg.Mt)) * mimoTx.PA
	r.TotalPA = stepTwoPA
	r.TotalEnergy = units.JoulePerBit(float64(cfg.Mt))*mimoTx.Total() +
		units.JoulePerBit(float64(cfg.Mr))*mustTotal(m.MIMORx(b))

	// Step 1: the head broadcasts once inside the transmit cluster.
	if cfg.Mt > 1 {
		r.TotalPA += localTx.PA
		r.TotalEnergy += localTx.Total() +
			units.JoulePerBit(float64(cfg.Mt-1))*mustTotal(m.LocalRx(b))
	}
	// Step 3: mr-1 members forward to the head in turn.
	if cfg.Mr > 1 {
		r.TotalPA += units.JoulePerBit(float64(cfg.Mr-1)) * localTx.PA
		r.TotalEnergy += units.JoulePerBit(float64(cfg.Mr-1))*localTx.Total() +
			units.JoulePerBit(float64(cfg.Mr-1))*mustTotal(m.LocalRx(b))
	}

	// Peak: local transmissions are sequential; the long-haul step fires
	// mt amplifiers at once.
	r.PeakPA = localTx.PA
	if stepTwoPA > r.PeakPA {
		r.PeakPA = stepTwoPA
	}
	return r, nil
}

func mustTotal(c energy.Cost, err error) units.JoulePerBit {
	if err != nil {
		// analyzeAtB validated (p, b) before any call here; a failure is
		// a programming error, not an input error.
		panic(err)
	}
	return c.Total()
}

// NoiseFloorMargin operationalises the paper's underlay constraint. The
// paper compares the cooperative PA energy against the no-cooperation
// SISO system, which it declares "the model for primary users": if the
// SUs radiate orders of magnitude less than a primary-grade transmitter
// would over the same hop, their spectral density at the primary
// receiver sits correspondingly far under the floor the PU link was
// budgeted for ("the difference of magnitude is 2 to 4 orders",
// Section 6.2). The returned ratio is the cooperative hop's total PA
// energy relative to the SISO reference at the same distance and BER;
// values well below 1 satisfy the constraint, and the paper's claim is
// ratio in [1e-4, 1e-2].
func NoiseFloorMargin(cfg Config, report HopReport) (float64, error) {
	ref := cfg
	ref.Mt, ref.Mr = 1, 1
	siso, err := Analyze(ref)
	if err != nil {
		return 0, fmt.Errorf("underlay: SISO reference: %w", err)
	}
	if siso.TotalPA == 0 {
		return 0, fmt.Errorf("underlay: SISO reference has zero PA energy")
	}
	return float64(report.TotalPA) / float64(siso.TotalPA), nil
}
