// Package mathx collects the numerical building blocks the reproduction
// relies on: the Gaussian Q-function and its inverse, root finding,
// adaptive quadrature, streaming statistics, and complex-matrix helpers.
//
// Nothing here is specific to cognitive radio; the package exists because
// the Go standard library has no special-function or linear-algebra layer
// and the paper's energy model (Section 2.3) needs exactly these pieces.
package mathx

import "math"

// Q is the Gaussian tail probability Q(x) = P[N(0,1) > x].
//
// Both BER expressions of the paper (eqs. 5 and 6) are built from Q.
func Q(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// QInv returns the x with Q(x) = p for p in (0, 1).
//
// The energy detector uses it to turn a false-alarm target into a
// threshold (internal/sensing). Newton iteration refines
// an asymptotic initial guess; accuracy is ~1e-12 over p in [1e-300, 1-1e-16].
func QInv(p float64) float64 {
	switch {
	case math.IsNaN(p) || p <= 0 || p >= 1:
		if p == 0.5 {
			return 0
		}
		return math.NaN()
	case p == 0.5:
		return 0
	case p > 0.5:
		return -QInv(1 - p)
	}
	// Initial guess from the asymptotic expansion
	// Q(x) ~ exp(-x^2/2) / (x sqrt(2 pi)).
	t := math.Sqrt(-2 * math.Log(p))
	x := t - (math.Log(t)+math.Log(2*math.Pi)/2)/t
	if x < 0 {
		x = 0
	}
	for i := 0; i < 60; i++ {
		fx := Q(x) - p
		// Q'(x) = -phi(x)
		d := -gaussPDF(x)
		if d == 0 {
			break
		}
		step := fx / d
		x -= step
		if math.Abs(step) < 1e-14*(1+math.Abs(x)) {
			break
		}
	}
	return x
}

func gaussPDF(x float64) float64 {
	return math.Exp(-x*x/2) / math.Sqrt(2*math.Pi)
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
