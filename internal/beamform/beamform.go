// Package beamform implements the pairwise null-steering transmit
// beamformer of Section 5: two cooperating secondary transmitters, one of
// which is given the phase shift delta = pi*(2 r cos(alpha)/w - 1) so the
// pair's waves cancel along the direction to the primary receiver while
// still combining (near-)constructively toward the secondary receiver.
//
// Two signal models are provided and cross-checked in tests:
//
//   - exact: each wave accrues phase -2*pi*d/w over its true path length
//     d, so the predicted field is valid at any range;
//   - far field: the paper's formulas, valid when the observation point
//     is far from the pair relative to its spacing r.
package beamform

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/geom"
)

// PhaseDelay is the paper's formula: the phase imposed on St1 so its wave
// cancels St2's along the direction at angle alpha = angle(Pr, St1, St2).
// r is the element spacing and w the wavelength, both in metres.
func PhaseDelay(r, alpha, w float64) float64 {
	return math.Pi * (2*r*math.Cos(alpha)/w - 1)
}

// Pair is a two-element null-steering transmitter. St1 carries the
// imposed phase Delta1; St2 transmits unshifted.
type Pair struct {
	St1, St2 geom.Point
	// Wavelength w in metres.
	Wavelength float64
	// Delta1 is the phase shift applied at St1, in radians.
	Delta1 float64
	// Amp1 and Amp2 are the per-element field amplitudes (gamma_1 and
	// gamma_2 of Section 5); both 1 by default.
	Amp1, Amp2 float64
}

// NewNullPair builds the pair that nulls toward pr: it computes
// alpha = angle(Pr, St1, St2) and applies the paper's phase delay at St1.
func NewNullPair(st1, st2, pr geom.Point, wavelength float64) (*Pair, error) {
	if wavelength <= 0 {
		return nil, fmt.Errorf("beamform: wavelength %g must be positive", wavelength)
	}
	r := st1.Dist(st2)
	if r == 0 {
		return nil, fmt.Errorf("beamform: coincident elements")
	}
	alpha := geom.AngleAt(st1, pr, st2)
	return &Pair{
		St1: st1, St2: st2,
		Wavelength: wavelength,
		Delta1:     PhaseDelay(r, alpha, wavelength),
		Amp1:       1, Amp2: 1,
	}, nil
}

// FieldAt returns the complex field at point q under the exact model:
// each element contributes amp * exp(j(phase - 2 pi d / w)) / 1 with d
// its true distance to q (free-space amplitude decay is omitted, as in
// the paper's Table 1 evaluation, which reports pure array gain).
func (p *Pair) FieldAt(q geom.Point) complex128 {
	a1, a2 := p.Amp1, p.Amp2
	if a1 == 0 && a2 == 0 {
		return 0
	}
	k := 2 * math.Pi / p.Wavelength
	f1 := complex(a1, 0) * cmplx.Exp(complex(0, p.Delta1-k*p.St1.Dist(q)))
	f2 := complex(a2, 0) * cmplx.Exp(complex(0, -k*p.St2.Dist(q)))
	return f1 + f2
}

// AmplitudeAt returns |FieldAt(q)|: 2 means full pairwise diversity gain
// over a single-element (SISO) transmitter of amplitude 1.
func (p *Pair) AmplitudeAt(q geom.Point) float64 {
	return cmplx.Abs(p.FieldAt(q))
}

// AmplitudeFarField evaluates the paper's far-field expression at q:
// Delta = delta + 2 pi (d2 - d1)/w reduces, for |q| >> r, to the
// projection of the spacing on the look direction, and the amplitude is
// sqrt(g1^2 + g2^2 + 2 g1 g2 cos Delta).
func (p *Pair) AmplitudeFarField(q geom.Point) float64 {
	// Path difference via projection on the unit look direction from the
	// pair midpoint — the far-field limit of d2 - d1.
	mid := geom.Midpoint(p.St1, p.St2)
	look := q.Sub(mid)
	u := look.Scale(1 / look.Norm())
	// d_i ~ R - (P_i - mid).u, so d2 - d1 = (P1 - P2).u.
	diff := p.St1.Sub(p.St2).Dot(u)
	delta := p.Delta1 + 2*math.Pi*diff/p.Wavelength
	return math.Sqrt(p.Amp1*p.Amp1 + p.Amp2*p.Amp2 + 2*p.Amp1*p.Amp2*math.Cos(delta))
}

// Pattern samples the far-field radiation amplitude at the given angles
// (radians, measured at the pair midpoint from the +X axis), at range
// rangeM. Figure 8 plots exactly this for the designed beamformer.
func (p *Pair) Pattern(angles []float64, rangeM float64) []float64 {
	mid := geom.Midpoint(p.St1, p.St2)
	out := make([]float64, len(angles))
	for i, th := range angles {
		out[i] = p.AmplitudeAt(geom.PolarPoint(mid, rangeM, th))
	}
	return out
}

// DesignNullAt returns the phase shift for St1 that steers the pattern
// null to the given angle (radians from the +X axis at the midpoint,
// with the elements on the line from St1 to St2): the Figure 8 testbed
// "puts a null in the direction of 120 degree".
func DesignNullAt(st1, st2 geom.Point, wavelength, nullAngle float64) float64 {
	axis := geom.Bearing(st1, st2)
	r := st1.Dist(st2)
	// Toward angle theta off the pair axis, d2 - d1 = -r cos(theta); the
	// null needs total relative phase delta + k(d2 - d1) = pi.
	theta := nullAngle - axis
	return math.Pi + 2*math.Pi*r*math.Cos(theta)/wavelength
}

// NullDepthDB measures the pattern null at angle relative to the pattern
// peak, in dB (negative numbers; deeper is better).
func (p *Pair) NullDepthDB(nullAngle float64, rangeM float64) float64 {
	const steps = 720
	peak := 0.0
	for i := 0; i < steps; i++ {
		a := p.AmplitudeAt(geom.PolarPoint(geom.Midpoint(p.St1, p.St2), rangeM, 2*math.Pi*float64(i)/steps))
		if a > peak {
			peak = a
		}
	}
	at := p.AmplitudeAt(geom.PolarPoint(geom.Midpoint(p.St1, p.St2), rangeM, nullAngle))
	if peak == 0 {
		return 0
	}
	if at == 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(at/peak)
}
