package mathx

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoBracket reports that a root finder was given an interval whose
// endpoints do not straddle a sign change.
var ErrNoBracket = errors.New("mathx: f(a) and f(b) have the same sign")

// Bisect finds x in [a, b] with f(x) = 0 to within tol using bisection.
// f(a) and f(b) must have opposite signs. It needs nothing but a sign
// change, so it also suits discontinuous or step-valued functions.
func Bisect(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	for i := 0; i < 200 && b-a > tol; i++ {
		m := a + (b-a)/2
		fm := f(m)
		if fm == 0 {
			return m, nil
		}
		if math.Signbit(fm) == math.Signbit(fa) {
			a, fa = m, fm
		} else {
			b = m
		}
	}
	return a + (b-a)/2, nil
}

// BisectLog runs bisection on a logarithmic grid, converging when the
// interval's ratio b/a falls below 1+rtol. It suits quantities spanning
// many decades, such as per-bit energies between 1e-21 and 1e-12 J.
func BisectLog(f func(float64) float64, a, b, rtol float64) (float64, error) {
	if a <= 0 || b <= 0 || a >= b {
		return 0, fmt.Errorf("mathx: BisectLog needs 0 < a < b, got [%g, %g]", a, b)
	}
	g := func(u float64) float64 { return f(math.Exp(u)) }
	u, err := Bisect(g, math.Log(a), math.Log(b), math.Log1p(rtol))
	if err != nil {
		return 0, err
	}
	return math.Exp(u), nil
}

// Brent finds a root of f in [a, b] to within tol by Brent's safeguarded
// method (zeroin): inverse quadratic or secant steps, with bisection
// whenever interpolation would leave the bracket or shrink it too
// slowly. Every step moves at least tol/2, so the bracket always closes.
// An endpoint may evaluate to ±Inf, as log(0) does; interpolation is
// skipped while it needs that value. The Monte-Carlo ēb inversion runs
// it on log BER over log energy, smooth under common random numbers.
func Brent(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	// b is the best estimate, c the other end of the bracket, a the
	// previous b; d is the last step and e the one before it.
	c, fc, d, e := a, fa, b-a, b-a
	for i := 0; i < 200; i++ {
		if math.Signbit(fb) == math.Signbit(fc) {
			c, fc, d, e = a, fa, b-a, b-a
		}
		if math.Abs(fc) < math.Abs(fb) {
			a, b, c = b, c, b
			fa, fb, fc = fb, fc, fb
		}
		tol1 := 0x1p-51*math.Abs(b) + tol/2 // 2·ε·|b| absorbs rounding
		xm := (c - b) / 2
		if fb == 0 || math.Abs(xm) <= tol1 {
			return b, nil
		}
		if math.Abs(e) < tol1 || math.Abs(fa) <= math.Abs(fb) || math.IsInf(fa, 0) {
			d, e = xm, xm // bisection
		} else {
			s := fb / fa
			var p, q float64
			if a == c {
				p, q = 2*xm*s, 1-s // secant
			} else {
				qa, r := fa/fc, fb/fc // inverse quadratic
				p = s * (2*xm*qa*(qa-r) - (b-a)*(r-1))
				q = (qa - 1) * (r - 1) * (s - 1)
			}
			if p > 0 {
				q = -q
			}
			p = math.Abs(p)
			if 2*p < math.Min(3*xm*q-math.Abs(tol1*q), math.Abs(e*q)) {
				d, e = p/q, d
			} else {
				d, e = xm, xm
			}
		}
		a, fa = b, fb
		if math.Abs(d) > tol1 {
			b += d
		} else {
			b += math.Copysign(tol1, xm)
		}
		fb = f(b)
	}
	return b, nil
}

// MinimizeGrid evaluates f on n+1 evenly spaced points of [a, b] and
// returns the abscissa and value of the minimum. The constellation-size
// optimisation of the paper is a small discrete search, but several
// analyses also need a coarse continuous minimiser; this keeps both honest
// and deterministic.
func MinimizeGrid(f func(float64) float64, a, b float64, n int) (x, fx float64) {
	if n < 1 {
		n = 1
	}
	bestX, bestF := a, f(a)
	for i := 1; i <= n; i++ {
		xi := a + (b-a)*float64(i)/float64(n)
		fi := f(xi)
		if fi < bestF {
			bestX, bestF = xi, fi
		}
	}
	return bestX, bestF
}
