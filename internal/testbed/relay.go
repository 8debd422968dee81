package testbed

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/mathx"
)

// OverlayExperiment measures the BER of a primary link with and without
// decode-and-forward SU relays, reproducing the Section 6.4 overlay
// testbed: BPSK, equal-gain combining at the receiver, 100 000 bits,
// fading redrawn every coherenceBits bits.
type OverlayExperiment struct {
	Env    Env
	Tx, Rx Radio
	Relays []Radio
	// Bits is the number of information bits (paper: 100 000).
	Bits int
	// Seed drives fading and noise.
	Seed int64
}

// coherenceBits is the fading block length in bits.
const coherenceBits = 500

// OverlayResult reports both arms of the experiment.
type OverlayResult struct {
	DirectBER float64
	CoopBER   float64
}

// link is one fading radio link's per-block state.
type link struct {
	meanSNR float64
	k       float64
	h       complex128 // current fading coefficient
}

func newLink(e Env, a, b geom.Point) *link {
	return &link{meanSNR: e.MeanSNR(a, b), k: e.LinkK(a, b)}
}

// redraw samples a new fading coefficient for the next coherence block.
func (l *link) redraw(rng *rand.Rand) {
	amp := mathx.Rician(rng, l.k, 1)
	phase := 2 * math.Pi * rng.Float64()
	l.h = cmplx.Rect(amp, phase)
}

// observe returns the receiver sample for BPSK symbol s (+1/-1) and the
// effective complex channel gain: y = g*s + CN(0,1) with g = h*sqrt(snr).
func (l *link) observe(rng *rand.Rand, s float64) (y, g complex128) {
	g = l.h * complex(math.Sqrt(l.meanSNR), 0)
	n := mathx.ComplexCN(rng, 1)
	return g*complex(s, 0) + n, g
}

// Run simulates the experiment. Both arms share fading and transmit
// bits, so the comparison is paired.
func (x OverlayExperiment) Run() (OverlayResult, error) {
	if err := x.Env.Validate(); err != nil {
		return OverlayResult{}, err
	}
	if x.Bits < 1 {
		return OverlayResult{}, fmt.Errorf("testbed: bit count %d must be positive", x.Bits)
	}
	rng := mathx.NewRand(x.Seed)

	direct := newLink(x.Env, x.Tx.Pos, x.Rx.Pos)
	up := make([]*link, len(x.Relays))   // Tx -> relay
	down := make([]*link, len(x.Relays)) // relay -> Rx
	for i, r := range x.Relays {
		up[i] = newLink(x.Env, x.Tx.Pos, r.Pos)
		down[i] = newLink(x.Env, r.Pos, x.Rx.Pos)
	}

	var errDirect, errCoop int
	ys := make([]complex128, 0, 1+len(x.Relays))
	gs := make([]complex128, 0, 1+len(x.Relays))
	for bit := 0; bit < x.Bits; bit++ {
		if bit%coherenceBits == 0 {
			direct.redraw(rng)
			for i := range x.Relays {
				up[i].redraw(rng)
				down[i].redraw(rng)
			}
		}
		s := float64(1 - 2*rng.Intn(2)) // +1 or -1

		// Phase 1: source broadcast; Rx and every relay listen.
		y0, g0 := direct.observe(rng, s)
		if decideBPSK(y0, g0) != s {
			errDirect++
		}
		ys = append(ys[:0], y0)
		gs = append(gs[:0], g0)

		// Phase 2: each relay forwards its hard decision; Rx equal-gain
		// combines the direct and relayed branches.
		for i := range x.Relays {
			yi, gi := up[i].observe(rng, s)
			sHat := decideBPSK(yi, gi)
			yr, gr := down[i].observe(rng, sHat)
			ys = append(ys, yr)
			gs = append(gs, gr)
		}
		if egcDecide(ys, gs) != s {
			errCoop++
		}
	}
	return OverlayResult{
		DirectBER: float64(errDirect) / float64(x.Bits),
		CoopBER:   float64(errCoop) / float64(x.Bits),
	}, nil
}

// decideBPSK coherently detects one BPSK symbol.
func decideBPSK(y, g complex128) float64 {
	if real(cmplx.Conj(g)*y) >= 0 {
		return 1
	}
	return -1
}

// egcDecide co-phases each branch (equal gain, no amplitude weighting —
// the combiner the paper's testbed uses) and decides on the sum.
func egcDecide(ys, gs []complex128) float64 {
	var sum float64
	for i := range ys {
		a := cmplx.Abs(gs[i])
		if a == 0 {
			continue
		}
		sum += real(cmplx.Conj(gs[i]/complex(a, 0)) * ys[i])
	}
	if sum >= 0 {
		return 1
	}
	return -1
}

// Table2Setup is the single-relay overlay layout: transmitter, relay and
// receiver on a 2 m equilateral triangle with a thick board obstructing
// the direct path.
func Table2Setup(seed int64) OverlayExperiment {
	env := DefaultEnv()
	env.NoisePowerDBm = -68
	env.Indoor.Obstacles = append(env.Indoor.Obstacles,
		Board(geom.Pt(1, -0.5), geom.Pt(1, 0.5), 6, "board"))
	return OverlayExperiment{
		Env:    env,
		Tx:     Radio{Name: "Pt", Pos: geom.Pt(0, 0)},
		Rx:     Radio{Name: "Pr", Pos: geom.Pt(2, 0)},
		Relays: []Radio{{Name: "relay", Pos: geom.Pt(1, 1.732)}},
		Bits:   100000,
		Seed:   seed,
	}
}

// Table3Setup is the multi-relay layout: the labs are ~10 m apart with
// two concrete walls across the direct path; relays sit mid-corridor so
// their two legs have comparable quality (the configuration the paper's
// "uniformly put in the corridor" achieved — a relay with one very bad
// leg poisons equal-gain combining with confident errors). relays
// selects how many of the three corridor positions are used (0 = direct
// only, 1 = the middle relay, 3 = all).
func Table3Setup(seed int64, relays int) OverlayExperiment {
	env := DefaultEnv()
	env.NoisePowerDBm = -68
	env.TxPowerDBm = -0.5
	env.Indoor.Obstacles = append(env.Indoor.Obstacles,
		Board(geom.Pt(3.3, -1), geom.Pt(3.3, 1.2), 3, "wall-1"),
		Board(geom.Pt(6.6, -1), geom.Pt(6.6, 1.2), 3, "wall-2"),
	)
	all := []Radio{
		{Name: "relay-1", Pos: geom.Pt(4.2, 1)},
		{Name: "relay-2", Pos: geom.Pt(5.0, 1)},
		{Name: "relay-3", Pos: geom.Pt(5.8, 1)},
	}
	var chosen []Radio
	switch relays {
	case 0:
	case 1:
		chosen = all[1:2] // the middle relay
	default:
		chosen = all[:relays]
	}
	return OverlayExperiment{
		Env:    env,
		Tx:     Radio{Name: "Pt", Pos: geom.Pt(0, 0)},
		Rx:     Radio{Name: "Pr", Pos: geom.Pt(10, 0)},
		Relays: chosen,
		Bits:   100000,
		Seed:   seed,
	}
}
