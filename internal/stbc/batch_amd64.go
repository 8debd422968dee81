package stbc

// decodePureAVX2 is decodePureLanes on four blocks per step, for
// len(reDot) a positive multiple of four, with every lane at least that
// long. Each step loads two y and two h vectors per antenna and splits
// them with VUNPCKLPD/VUNPCKHPD into real and imaginary parts in unpack
// order, blocks 0, 2, 1, 3; the accumulators are read and written in
// that order too, so every caller of one symbol's sums must take the
// same groups of four here (see decodePure). Per lane it runs
// decodePureLanes's multiplies and adds in its order, VMULPD and VADDPD
// only, with the negation as a sign-bit VXORPD. Implemented in
// batch_amd64.s.
//
//go:noescape
func decodePureAVX2(ya, yb, ha, hb []complex128, r, q float64, reDot, reN2, imDot, imN2 []float64)

// divideAVX2 is divideLanes on four blocks per step, for len(reDot) a
// positive multiple of four, reading the sums in unpack order: VDIVPD
// forms every quotient and a VCMPPD GT_OQ mask of n2 > 0 ANDs away the
// rest to +0, the value the pure-Go loop keeps there. VUNPCKLPD and
// VUNPCKHPD then interleave the real and imaginary quotients back into
// block order. Implemented in batch_amd64.s.
//
//go:noescape
func divideAVX2(reDot, reN2, imDot, imN2 []float64, out []complex128)

// mulAdd1AVX2, mulAdd2AVX2 and mulAdd3AVX2 are mulAdd1/2/3 on two
// blocks per step, for len(yL) a positive even number. Each complex
// product x·h is VMOVDDUP/VPERMILPD, two VMULPDs and a VADDSUBPD:
// real xr·hr − xi·hi and imaginary xi·hr + xr·hi, Go's complex multiply
// with its last add commuted, which is exact. An empty nzL adds no
// noise. Implemented in batch_amd64.s.
//
//go:noescape
func mulAdd1AVX2(yL, xL, hL, nzL []complex128)

//go:noescape
func mulAdd2AVX2(yL, xL0, hL0, xL1, hL1, nzL []complex128)

//go:noescape
func mulAdd3AVX2(yL, xL0, hL0, xL1, hL1, xL2, hL2, nzL []complex128)
