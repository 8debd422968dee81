package energy

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// EbProvider supplies ēb(p, b, mt, mr): the required per-bit receive
// energy so that an mt-by-mr STBC link over flat Rayleigh fading hits
// average BER p with constellation size b (the implicit solution of the
// paper's eqs. 5–6). Implementations live in internal/ebtable.
type EbProvider interface {
	EbBar(p float64, b, mt, mr int) (float64, error)
}

// Cost is a per-bit energy broken into its power-amplifier and circuit
// components. The underlay analysis constrains PA alone (Section 4); all
// other analyses use Total.
type Cost struct {
	PA      units.JoulePerBit
	Circuit units.JoulePerBit
}

// Total returns PA + Circuit.
func (c Cost) Total() units.JoulePerBit { return c.PA + c.Circuit }

// Model evaluates the four energy equations for one constant set.
type Model struct {
	P  Params
	Eb EbProvider
}

// New constructs a model, validating the constants once up front.
func New(p Params, eb EbProvider) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Model{P: p, Eb: eb}, nil
}

// LocalTx evaluates eq. (1): the per-bit cost of an intra-cluster
// transmission over distance d at target BER p with constellation b.
//
//	e_PA^Lt = (4/3)(1+alpha) ((2^b - 1)/b) ln(4(1 - 2^(-b/2))/(b p)) Gd Nf sigma^2
//	e_C^Lt  = Pct/(b B) + Psyn Ttr / n
func (m *Model) LocalTx(p float64, b int, d float64) (Cost, error) {
	if err := checkPB(p, b, m.P.BMax); err != nil {
		return Cost{}, err
	}
	arg := 4 * (1 - math.Pow(2, -float64(b)/2)) / (float64(b) * p)
	if arg <= 1 {
		// The link-budget log-term degenerates: the BER target is so loose
		// the formula's domain is exceeded. Clamp to zero PA energy.
		arg = 1
	}
	gd := m.P.LocalLoss().Gain(d)
	pa := 4.0 / 3 * (1 + Alpha(b)) * (math.Pow(2, float64(b)) - 1) / float64(b) *
		math.Log(arg) * gd * m.P.Nf * m.P.Sigma2
	circ := float64(m.P.Pct)/(float64(b)*float64(m.P.Bandwidth)) +
		float64(m.P.Psyn)*float64(m.P.Ttr)/float64(m.P.PacketBits)
	return Cost{PA: units.JoulePerBit(pa), Circuit: units.JoulePerBit(circ)}, nil
}

// LocalRx evaluates eq. (2): e_Lr = Pcr/(b B) + Psyn Ttr / n. Reception
// spends only circuit energy.
func (m *Model) LocalRx(b int) (Cost, error) {
	if err := checkPB(0.5, b, m.P.BMax); err != nil {
		return Cost{}, err
	}
	circ := float64(m.P.Pcr)/(float64(b)*float64(m.P.Bandwidth)) +
		float64(m.P.Psyn)*float64(m.P.Ttr)/float64(m.P.PacketBits)
	return Cost{Circuit: units.JoulePerBit(circ)}, nil
}

// MIMOTx evaluates eq. (3): the per-node, per-bit cost of transmitting on
// a long-haul mt-by-mr cooperative link of length D metres.
//
//	e_PA^MIMOt = (1/mt)(1+alpha) ēb(p,b,mt,mr) (4 pi D)^2/(Gt Gr lambda^2) Ml Nf
//	e_C^MIMOt  = (Pct + Psyn)/(b B)
func (m *Model) MIMOTx(p float64, b, mt, mr int, d float64) (Cost, error) {
	if err := checkPB(p, b, m.P.BMax); err != nil {
		return Cost{}, err
	}
	if err := checkAntennas(mt, mr); err != nil {
		return Cost{}, err
	}
	eb, err := m.Eb.EbBar(p, b, mt, mr)
	if err != nil {
		return Cost{}, fmt.Errorf("energy: ēb(p=%g, b=%d, %dx%d): %w", p, b, mt, mr, err)
	}
	pa := (1 + Alpha(b)) / float64(mt) * eb * m.P.LongHaulLoss().Gain(d)
	circ := (float64(m.P.Pct) + float64(m.P.Psyn)) / (float64(b) * float64(m.P.Bandwidth))
	return Cost{PA: units.JoulePerBit(pa), Circuit: units.JoulePerBit(circ)}, nil
}

// MIMORx evaluates eq. (4): e_MIMOr = (Pcr + Psyn)/(b B), the per-node
// receive cost on a long-haul cooperative link.
func (m *Model) MIMORx(b int) (Cost, error) {
	if err := checkPB(0.5, b, m.P.BMax); err != nil {
		return Cost{}, err
	}
	circ := (float64(m.P.Pcr) + float64(m.P.Psyn)) / (float64(b) * float64(m.P.Bandwidth))
	return Cost{Circuit: units.JoulePerBit(circ)}, nil
}

// HopEnergy totals the per-bit energy of one cooperative hop at
// constellation b: mt long-haul transmitters (eq. 3) and mr long-haul
// receivers (eq. 4), plus, when either side cooperates, one local
// broadcast (eq. 1) over the intra-cluster span d for the transmit side
// and one per non-head receiver to gather at the head (Algorithm 2's
// accounting over all participating nodes). A degenerate cluster's
// span d <= 0 is priced at 0.1 m. D is the long-haul link length.
func (m *Model) HopEnergy(p float64, b, mt, mr int, d, D float64) (units.JoulePerBit, error) {
	tx, err := m.MIMOTx(p, b, mt, mr, D)
	if err != nil {
		return 0, err
	}
	rx, err := m.MIMORx(b)
	if err != nil {
		return 0, err
	}
	total := units.JoulePerBit(float64(mt))*tx.Total() +
		units.JoulePerBit(float64(mr))*rx.Total()
	if mt > 1 || mr > 1 {
		if d <= 0 {
			d = 0.1
		}
		lt, err := m.LocalTx(p, b, d)
		if err != nil {
			return 0, err
		}
		locals := 0
		if mt > 1 {
			locals++
		}
		if mr > 1 {
			locals += mr - 1
		}
		total += units.JoulePerBit(float64(locals)) * lt.Total()
	}
	return total, nil
}

// MIMOTxDistance inverts eq. (3): the longest link length D at which a
// per-node energy budget of e suffices for target BER p with
// constellation b on an mt-by-mr link. It returns 0 when the budget does
// not even cover the circuit energy.
func (m *Model) MIMOTxDistance(e units.JoulePerBit, p float64, b, mt, mr int) (float64, error) {
	if err := checkPB(p, b, m.P.BMax); err != nil {
		return 0, err
	}
	if err := checkAntennas(mt, mr); err != nil {
		return 0, err
	}
	circ := (float64(m.P.Pct) + float64(m.P.Psyn)) / (float64(b) * float64(m.P.Bandwidth))
	budget := float64(e) - circ
	if budget <= 0 {
		return 0, nil
	}
	eb, err := m.Eb.EbBar(p, b, mt, mr)
	if err != nil {
		return 0, fmt.Errorf("energy: ēb(p=%g, b=%d, %dx%d): %w", p, b, mt, mr, err)
	}
	gain := budget * float64(mt) / ((1 + Alpha(b)) * eb)
	return m.P.LongHaulLoss().DistanceForGain(gain), nil
}

// BSearch holds the outcome of a constellation-size optimisation.
type BSearch struct {
	B    int
	Cost Cost
}

// OptimalMIMOB sweeps b = 1..BMax and returns the constellation that
// minimises the chosen objective of the long-haul transmit cost
// (Algorithm 1/2 preprocessing: "determine constellation size b which
// minimizes ēb"). Unreachable (p, b) combinations are skipped; if every
// b is unreachable an error is returned.
func (m *Model) OptimalMIMOB(p float64, mt, mr int, d float64, objective func(Cost) float64) (BSearch, error) {
	if objective == nil {
		objective = func(c Cost) float64 { return float64(c.Total()) }
	}
	best := BSearch{B: -1}
	bestVal := math.Inf(1)
	var lastErr error
	for b := 1; b <= m.P.BMax; b++ {
		c, err := m.MIMOTx(p, b, mt, mr, d)
		if err != nil {
			lastErr = err
			continue
		}
		if v := objective(c); v < bestVal {
			bestVal = v
			best = BSearch{B: b, Cost: c}
		}
	}
	if best.B < 0 {
		return best, fmt.Errorf("energy: no feasible constellation for p=%g on %dx%d: %w", p, mt, mr, lastErr)
	}
	return best, nil
}

// OptimalLocalB sweeps b for the local-link cost of eq. (1).
func (m *Model) OptimalLocalB(p float64, d float64, objective func(Cost) float64) (BSearch, error) {
	if objective == nil {
		objective = func(c Cost) float64 { return float64(c.Total()) }
	}
	best := BSearch{B: -1}
	bestVal := math.Inf(1)
	for b := 1; b <= m.P.BMax; b++ {
		c, err := m.LocalTx(p, b, d)
		if err != nil {
			continue
		}
		if v := objective(c); v < bestVal {
			bestVal = v
			best = BSearch{B: b, Cost: c}
		}
	}
	if best.B < 0 {
		return best, fmt.Errorf("energy: no feasible local constellation for p=%g", p)
	}
	return best, nil
}

func checkPB(p float64, b, bmax int) error {
	if p <= 0 || p >= 1 {
		return fmt.Errorf("energy: BER target %g outside (0, 1)", p)
	}
	if b < 1 || b > bmax {
		return fmt.Errorf("energy: constellation size %d outside [1, %d]", b, bmax)
	}
	return nil
}

func checkAntennas(mt, mr int) error {
	if mt < 1 || mr < 1 {
		return fmt.Errorf("energy: antenna counts %dx%d must be positive", mt, mr)
	}
	return nil
}
