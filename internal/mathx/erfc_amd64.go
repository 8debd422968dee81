package mathx

import "math"

// erfcLanes holds erfcAVX2's operands, one 32-byte row of four lanes
// each, in the order erfc_amd64.s names them: masks and constants
// repeated in every lane, then the rational fits.
//
// The fits are laid out for per-lane selection. Row num[k] holds the
// numerator's coefficient of s^k for the four ranges of |x|, [pp_k,
// pa_k, ra_k, rb_k], and row den[k] the denominator's coefficient of
// s^(k+1), [qq_k+1, qa_k+1, sa_k+1, sb_k+1]; a lane's range index picks
// its column with VPERMPS. Every fit
// is zero-padded to the longest (a numerator of degree 7 and a
// denominator 1 + s·(…) of degree 8), which is exact: Horner's first
// steps then give t = 0, t·s = ±0 and c + ±0 = c, so the evaluation
// reaches the first true coefficient with the bits of starting there.
var erfcLanes = func() (t struct {
	abs, sign, tiny, quarter, c84, c125, cB, six, c28 [4]uint64
	half, one, two, onePlusErx, oneMinusErx           [4]uint64
	zMask, c5625                                      [4]uint64
	log2e, ln2U, ln2L, sixteenth                      [4]uint64
	e8, e7, e6, e5, e4, e3                            [4]uint64
	bias, denShift, idx, zero                         [4]uint64
	num, den                                          [8][4]uint64
}) {
	f := func(v float64) [4]uint64 { return lanes4(math.Float64bits(v)) }
	t.abs, t.sign = lanes4(1<<63-1), lanes4(1<<63)
	t.tiny, t.quarter, t.c84, t.c125 = f(erfcTiny), f(0.25), f(0.84375), f(1.25)
	t.cB, t.six, t.c28 = f(1/0.35), f(6), f(28)
	t.half, t.one, t.two = f(0.5), f(1), f(2)
	t.onePlusErx, t.oneMinusErx = f(1+erx), f(1-erx)
	t.zMask, t.c5625 = lanes4(0xffffffff00000000), f(0.5625)
	t.log2e, t.ln2U, t.ln2L, t.sixteenth = f(expLog2e), f(expLn2U), f(expLn2L), f(0.0625)
	t.e8, t.e7, t.e6, t.e5, t.e4, t.e3 = f(expC8), f(expC7), f(expC6), f(expC5), f(expC4), f(expC3)
	// Exp's ldexp step on 64-bit integer lanes: the bias of 2^k, and
	// the exponent field 0x3FE<<52 that moves a subnormal result's
	// scale from the first factor (2^k·2^1022) to the second (2^-1022).
	t.bias, t.denShift = lanes4(0x3FF), lanes4(0x3FE<<52)
	// Each lane's VPERMPS index pair starts at dwords (0, 1).
	t.idx = lanes4(1 << 32)
	num := [4][8]float64{
		{pp0, pp1, pp2, pp3, pp4},
		{pa0, pa1, pa2, pa3, pa4, pa5, pa6},
		{ra0, ra1, ra2, ra3, ra4, ra5, ra6, ra7},
		{rb0, rb1, rb2, rb3, rb4, rb5, rb6},
	}
	den := [4][8]float64{
		{qq1, qq2, qq3, qq4, qq5},
		{qa1, qa2, qa3, qa4, qa5, qa6},
		{sa1, sa2, sa3, sa4, sa5, sa6, sa7, sa8},
		{sb1, sb2, sb3, sb4, sb5, sb6, sb7},
	}
	for r := range num {
		for k := range num[r] {
			t.num[k][r] = math.Float64bits(num[r][k])
			t.den[k][r] = math.Float64bits(den[r][k])
		}
	}
	return t
}()

// lanes4 repeats one 64-bit pattern in all four lanes.
func lanes4(v uint64) [4]uint64 { return [4]uint64{v, v, v, v} }

// erfcAVX2 stores Erfc(src[i]) in dst[i], eight lanes per step as two
// interleaved groups of four; len(src) must be a positive multiple of
// eight and len(dst) at least that. Every lane runs Erfc's IEEE
// operations in Erfc's order, its range chosen by compare masks and its
// fit by VPERMPS (erfcLanes). A step with no lane in [1.25, 28) other
// than negative ones beyond -6 skips the Exp calls; one whose lanes all
// lie at or beyond ±28, or below -6, stores its constants at once.
// Implemented in erfc_amd64.s.
//
//go:noescape
func erfcAVX2(dst, src []float64)
