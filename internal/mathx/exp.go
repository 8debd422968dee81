// Copyright 2010 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.
//
// Exp below is a Go transcription of the non-FMA path of the Go
// standard library's src/math/exp_amd64.s (Go 1.24), Naoki Shibata's
// method ("Efficient evaluation methods of elementary functions suitable
// for SIMD computation", ISC'10), whose constants come from the SLEEF
// library, in the public domain.

package mathx

import "math"

// Exp's constants, exp_amd64.s's.
const (
	expLog2e    = 1.4426950408889634073599246810018920
	expLn2U     = 0.69314718055966295651160180568695068359375
	expLn2L     = 0.28235290563031577122588448175013436025525412068e-12
	expOverflow = 7.09782712893384e+02
	// The Taylor coefficients 1/8! through 1/3!, then 1/2 and 1.
	expC8 = 2.4801587301587301587e-5
	expC7 = 1.9841269841269841270e-4
	expC6 = 1.3888888888888888889e-3
	expC5 = 8.3333333333333333333e-3
	expC4 = 4.1666666666666666667e-2
	expC3 = 1.6666666666666666667e-1
)

// Exp returns e**x. It is defined by its operations, not by the host:
// every IEEE operation of the non-FMA path of amd64 math.Exp, in that
// order, each rounded on its own. The argument is reduced by
// k = round-to-even(x·log2e) against ln 2 in two parts and scaled by
// 1/16, a Taylor series to 1/8! runs on the reduced r, four squarings
// y·(2+y) undo the scaling, and the result is 1+y times 2^k, in two
// steps when it is subnormal. Every product carries an explicit
// float64 conversion, so no architecture may fuse it into an add.
//
// On amd64 without FMA it equals math.Exp bit for bit. math.Exp itself
// takes a fused path on amd64 hosts with FMA and is fused again on
// arm64, so its low bit depends on the host; this one does not.
// Special cases: Exp(+Inf) = +Inf, Exp(-Inf) = 0, Exp(NaN) = NaN with
// its payload, Exp(x) = +Inf for x above 709.782712893384.
func Exp(x float64) float64 {
	switch {
	case x != x || x > math.MaxFloat64:
		return x
	case x < -math.MaxFloat64:
		return 0
	case x > expOverflow:
		return math.Inf(1)
	}
	// k is CVTSD2SL's conversion of x·log2e: to nearest, ties to even,
	// with the x86 "integer indefinite" -2^31 below the int32 range (the
	// product is at most 1024).
	k := math.MinInt32
	if t := math.RoundToEven(float64(expLog2e * x)); t >= math.MinInt32 {
		k = int(t)
	}
	// ldexp's bias: e is the biased exponent of 2^k. Below -52 the
	// result underflows to zero whatever the series gives.
	e := k + 0x3FF
	if e < -52 {
		return 0
	}
	fk := float64(k)
	r := x - float64(expLn2U*fk)
	r -= float64(expLn2L * fk)
	r = float64(r * 0.0625)
	p := float64(expC8 * r)
	p = float64(float64(p+expC7) * r)
	p = float64(float64(p+expC6) * r)
	p = float64(float64(p+expC5) * r)
	p = float64(float64(p+expC4) * r)
	p = float64(float64(p+expC3) * r)
	p = float64(float64(p+0.5) * r)
	p += 1
	y := float64(r * p)
	y = float64(y * float64(2+y))
	y = float64(y * float64(2+y))
	y = float64(y * float64(2+y))
	y = float64(y * float64(2+y))
	y += 1
	if e <= 0 {
		// Subnormal: scale by 2^(k+1022), then by 2^-1022.
		y = float64(y * math.Float64frombits(uint64(e+0x3FE)<<52))
		e = 1
	} else if e >= 0x7FF {
		return math.Inf(1)
	}
	return float64(y * math.Float64frombits(uint64(e)<<52))
}
