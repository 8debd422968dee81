// Copyright 2010 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.
//
// Erfc below is the Go standard library's erfc, src/math/erf.go (Go
// 1.24), with its Exp calls pointed at this package's Exp; its
// coefficients are copied verbatim from there. The original C code is
// FreeBSD's /usr/src/lib/msun/src/s_erf.c, which came with this notice:
//
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================

package mathx

import "math"

const (
	erx = 8.45062911510467529297e-01 // 0x3FEB0AC160000000
	// Coefficients for approximation to  erf  in |x| <= 0.84375
	pp0 = 1.28379167095512558561e-01  // 0x3FC06EBA8214DB68
	pp1 = -3.25042107247001499370e-01 // 0xBFD4CD7D691CB913
	pp2 = -2.84817495755985104766e-02 // 0xBF9D2A51DBD7194F
	pp3 = -5.77027029648944159157e-03 // 0xBF77A291236668E4
	pp4 = -2.37630166566501626084e-05 // 0xBEF8EAD6120016AC
	qq1 = 3.97917223959155352819e-01  // 0x3FD97779CDDADC09
	qq2 = 6.50222499887672944485e-02  // 0x3FB0A54C5536CEBA
	qq3 = 5.08130628187576562776e-03  // 0x3F74D022C4D36B0F
	qq4 = 1.32494738004321644526e-04  // 0x3F215DC9221C1A10
	qq5 = -3.96022827877536812320e-06 // 0xBED09C4342A26120
	// Coefficients for approximation to  erf  in 0.84375 <= |x| <= 1.25
	pa0 = -2.36211856075265944077e-03 // 0xBF6359B8BEF77538
	pa1 = 4.14856118683748331666e-01  // 0x3FDA8D00AD92B34D
	pa2 = -3.72207876035701323847e-01 // 0xBFD7D240FBB8C3F1
	pa3 = 3.18346619901161753674e-01  // 0x3FD45FCA805120E4
	pa4 = -1.10894694282396677476e-01 // 0xBFBC63983D3E28EC
	pa5 = 3.54783043256182359371e-02  // 0x3FA22A36599795EB
	pa6 = -2.16637559486879084300e-03 // 0xBF61BF380A96073F
	qa1 = 1.06420880400844228286e-01  // 0x3FBB3E6618EEE323
	qa2 = 5.40397917702171048937e-01  // 0x3FE14AF092EB6F33
	qa3 = 7.18286544141962662868e-02  // 0x3FB2635CD99FE9A7
	qa4 = 1.26171219808761642112e-01  // 0x3FC02660E763351F
	qa5 = 1.36370839120290507362e-02  // 0x3F8BEDC26B51DD1C
	qa6 = 1.19844998467991074170e-02  // 0x3F888B545735151D
	// Coefficients for approximation to  erfc  in 1.25 <= |x| <= 1/0.35
	ra0 = -9.86494403484714822705e-03 // 0xBF843412600D6435
	ra1 = -6.93858572707181764372e-01 // 0xBFE63416E4BA7360
	ra2 = -1.05586262253232909814e+01 // 0xC0251E0441B0E726
	ra3 = -6.23753324503260060396e+01 // 0xC04F300AE4CBA38D
	ra4 = -1.62396669462573470355e+02 // 0xC0644CB184282266
	ra5 = -1.84605092906711035994e+02 // 0xC067135CEBCCABB2
	ra6 = -8.12874355063065934246e+01 // 0xC054526557E4D2F2
	ra7 = -9.81432934416914548592e+00 // 0xC023A0EFC69AC25C
	sa1 = 1.96512716674392571292e+01  // 0x4033A6B9BD707687
	sa2 = 1.37657754143519042600e+02  // 0x4061350C526AE721
	sa3 = 4.34565877475229228821e+02  // 0x407B290DD58A1A71
	sa4 = 6.45387271733267880336e+02  // 0x40842B1921EC2868
	sa5 = 4.29008140027567833386e+02  // 0x407AD02157700314
	sa6 = 1.08635005541779435134e+02  // 0x405B28A3EE48AE2C
	sa7 = 6.57024977031928170135e+00  // 0x401A47EF8E484A93
	sa8 = -6.04244152148580987438e-02 // 0xBFAEEFF2EE749A62
	// Coefficients for approximation to  erfc  in 1/.35 <= |x| <= 28
	rb0 = -9.86494292470009928597e-03 // 0xBF84341239E86F4A
	rb1 = -7.99283237680523006574e-01 // 0xBFE993BA70C285DE
	rb2 = -1.77579549177547519889e+01 // 0xC031C209555F995A
	rb3 = -1.60636384855821916062e+02 // 0xC064145D43C5ED98
	rb4 = -6.37566443368389627722e+02 // 0xC083EC881375F228
	rb5 = -1.02509513161107724954e+03 // 0xC09004616A2E5992
	rb6 = -4.83519191608651397019e+02 // 0xC07E384E9BDC383F
	sb1 = 3.03380607434824582924e+01  // 0x403E568B261D5190
	sb2 = 3.25792512996573918826e+02  // 0x40745CAE221B9F0A
	sb3 = 1.53672958608443695994e+03  // 0x409802EB189D5118
	sb4 = 3.19985821950859553908e+03  // 0x40A8FFB7688C246A
	sb5 = 2.55305040643316442583e+03  // 0x40A3F219CEDF3BE6
	sb6 = 4.74528541206955367215e+02  // 0x407DA874E79FE763
	sb7 = -2.24409524465858183362e+01 // 0xC03670E242712D62
)

// erfcTiny is erfc's 2**-56: below it erf(x) rounds to x.
const erfcTiny = 1.0 / (1 << 56)

// Erfc returns the complementary error function of x: math.Erfc's
// algorithm and operations, in its order, on this package's Exp, with
// every product that meets an add converted to float64 so that no
// architecture fuses the two. Where math.Exp takes no fused path (amd64
// without FMA) Erfc equals math.Erfc bit for bit; elsewhere the two
// can differ in the last place, and Erfc does not.
//
// Special cases are:
//
//	Erfc(+Inf) = 0
//	Erfc(-Inf) = 2
//	Erfc(NaN) = NaN
func Erfc(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return math.NaN()
	case math.IsInf(x, 1):
		return 0
	case math.IsInf(x, -1):
		return 2
	}
	sign := false
	if x < 0 {
		x = -x
		sign = true
	}
	if x < 0.84375 { // |x| < 0.84375
		var temp float64
		if x < erfcTiny { // |x| < 2**-56
			temp = x
		} else {
			z := x * x
			r := addMul(pp0, z, addMul(pp1, z, addMul(pp2, z, addMul(pp3, z, pp4))))
			s := addMul(1, z, addMul(qq1, z, addMul(qq2, z, addMul(qq3, z, addMul(qq4, z, qq5)))))
			y := r / s
			if x < 0.25 { // |x| < 1/4
				temp = addMul(x, x, y)
			} else {
				temp = 0.5 + (float64(x*y) + (x - 0.5))
			}
		}
		if sign {
			return 1 + temp
		}
		return 1 - temp
	}
	if x < 1.25 { // 0.84375 <= |x| < 1.25
		s := x - 1
		p := addMul(pa0, s, addMul(pa1, s, addMul(pa2, s, addMul(pa3, s, addMul(pa4, s, addMul(pa5, s, pa6))))))
		q := addMul(1, s, addMul(qa1, s, addMul(qa2, s, addMul(qa3, s, addMul(qa4, s, addMul(qa5, s, qa6))))))
		if sign {
			return 1 + erx + p/q
		}
		return 1 - erx - p/q
	}
	if x < 28 { // |x| < 28
		s := 1 / (x * x)
		var R, S float64
		if x < 1/0.35 { // |x| < 1 / 0.35 ~ 2.857143
			R = addMul(ra0, s, addMul(ra1, s, addMul(ra2, s, addMul(ra3, s, addMul(ra4, s, addMul(ra5, s, addMul(ra6, s, ra7)))))))
			S = addMul(1, s, addMul(sa1, s, addMul(sa2, s, addMul(sa3, s, addMul(sa4, s, addMul(sa5, s, addMul(sa6, s, addMul(sa7, s, sa8))))))))
		} else { // |x| >= 1 / 0.35 ~ 2.857143
			if sign && x > 6 {
				return 2 // x < -6
			}
			R = addMul(rb0, s, addMul(rb1, s, addMul(rb2, s, addMul(rb3, s, addMul(rb4, s, addMul(rb5, s, rb6))))))
			S = addMul(1, s, addMul(sb1, s, addMul(sb2, s, addMul(sb3, s, addMul(sb4, s, addMul(sb5, s, addMul(sb6, s, sb7)))))))
		}
		z := math.Float64frombits(math.Float64bits(x) & 0xffffffff00000000) // pseudo-single (20-bit) precision x
		r := Exp(float64(-z*z)-0.5625) * Exp(float64((z-x)*(z+x))+R/S)
		if sign {
			return 2 - r/x
		}
		return r / x
	}
	if sign {
		return 2
	}
	return 0
}

// addMul returns c + v*t with the product rounded first: one Horner
// step, never fused.
func addMul(c, v, t float64) float64 { return c + float64(v*t) }

// ErfcInto stores Erfc(src[i]) in dst[i] for every i of src; dst must
// be at least as long and may be src itself. Where HasAVX2 reports
// AVX2 it runs four lanes per instruction (erfcAVX2) and the pure-Go
// loop finishes the last len(src)%8; elsewhere the loop does all of it.
// The bits are Erfc's either way.
func ErfcInto(dst, src []float64) { erfcInto(dst, src, avx2) }

// erfcInto is ErfcInto on the AVX2 kernel when vector is set, on the
// pure-Go loop otherwise.
func erfcInto(dst, src []float64, vector bool) {
	dst = dst[:len(src)]
	n := 0
	if vector {
		n = len(src) &^ 7
		if n > 0 {
			erfcAVX2(dst[:n], src[:n])
		}
	}
	for i := n; i < len(src); i++ {
		dst[i] = Erfc(src[i])
	}
}
