// Package channel models the propagation environments of the paper:
//
//   - local/intra-cluster links: kappa-power path loss with AWGN
//     (Section 2.3, eq. 1: Gd = G1 * d^kappa * Ml);
//   - long-haul cooperative links: square-law free-space loss with flat
//     Rayleigh block fading (eq. 3: (4*pi*D)^2 / (Gt*Gr*lambda^2) * Ml * Nf);
//   - indoor testbed links: Rician multipath plus per-obstacle attenuation
//     (Section 6.4's USRP environment substitute).
package channel

import (
	"fmt"
	"math"
)

// LocalPathLoss is the intra-cluster attenuation model Gd = G1 * d^kappa * Ml.
type LocalPathLoss struct {
	// G1 is the linear gain factor at one metre. The paper prints
	// "G1 = 10mw"; following the Cui et al. convention it is treated as a
	// dimensionless linear factor of 10 (see DESIGN.md).
	G1 float64
	// Kappa is the path-loss exponent (paper: 3.5).
	Kappa float64
	// Ml is the link margin as a linear ratio (paper: 40 dB -> 1e4).
	Ml float64
}

// Gain returns Gd at distance d metres: the factor by which the required
// transmit energy exceeds the received energy.
func (l LocalPathLoss) Gain(d float64) float64 {
	if d < 0 {
		panic(fmt.Sprintf("channel: negative distance %g", d))
	}
	return l.G1 * math.Pow(d, l.Kappa) * l.Ml
}

// LongHaulPathLoss is the square-law loss of the cooperative MIMO hop:
// (4*pi*D)^2 / (Gt*Gr*lambda^2) * Ml * Nf.
type LongHaulPathLoss struct {
	// GtGr is the combined transmit/receive antenna gain (linear).
	GtGr float64
	// Lambda is the carrier wavelength in metres (paper: 0.1199 m).
	Lambda float64
	// Ml is the link margin (linear).
	Ml float64
	// Nf is the receiver noise figure (linear).
	Nf float64
}

// Gain returns the loss factor at distance D metres.
func (l LongHaulPathLoss) Gain(D float64) float64 {
	if D < 0 {
		panic(fmt.Sprintf("channel: negative distance %g", D))
	}
	x := 4 * math.Pi * D
	return x * x / (l.GtGr * l.Lambda * l.Lambda) * l.Ml * l.Nf
}

// DistanceForGain inverts Gain: the D at which the loss factor equals g.
// The overlay analysis (Section 6.1) solves for the largest relay
// distances this way.
func (l LongHaulPathLoss) DistanceForGain(g float64) float64 {
	if g <= 0 {
		panic(fmt.Sprintf("channel: non-positive gain %g", g))
	}
	return math.Sqrt(g*l.GtGr*l.Lambda*l.Lambda/(l.Ml*l.Nf)) / (4 * math.Pi)
}

// ThreeSlopePathLoss is the piecewise model of the cell-free massive
// MIMO literature (Ngo et al., "Cell-Free Massive MIMO Versus Small
// Cells"): free-space-like decay (exponent 2) between the breakpoints
// D0 and D1, exponent 3.5 beyond D1, and a constant floor below D0 so
// a user standing next to an access point cannot see unbounded gain.
// The segments join continuously at both breakpoints.
type ThreeSlopePathLoss struct {
	// LRefDB is the reference loss at 1 km on the outer slope, in dB
	// (Ngo's constants for 1.9 GHz and 15 m/1.65 m antenna heights give
	// 140.7).
	LRefDB float64
	// D0, D1 are the inner and outer breakpoint distances in metres
	// (typically 10 and 50).
	D0, D1 float64
}

// GainDB returns the channel gain (negative of the path loss) in dB at
// distance d metres.
func (p ThreeSlopePathLoss) GainDB(d float64) float64 {
	if d < 0 {
		panic(fmt.Sprintf("channel: negative distance %g", d))
	}
	if d < p.D0 {
		d = p.D0
	}
	km := d / 1000
	if d > p.D1 {
		return -p.LRefDB - 35*math.Log10(km)
	}
	// Inside D1 the exponent drops to 2; the -15 log10(D1) term makes
	// the two segments meet: at d = D1 both branches read
	// -LRef - 35 log10(D1/1000).
	return -p.LRefDB - 15*math.Log10(p.D1/1000) - 20*math.Log10(km)
}
