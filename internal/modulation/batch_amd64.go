package modulation

// bpskLanes maps the sign mask of a four-symbol group's decisions to the
// four output bytes in symbol order. The kernel compares the real parts
// in unpack order — symbols 0, 2, 1, 3 — so mask bit 1 is symbol 2 and
// bit 2 symbol 1. BPSK's bit table is the identity (iBits = {0, 1}), so
// a byte is its symbol's decision.
var bpskLanes = func() (t [16]uint32) {
	for m := range t {
		for sym, bit := range [4]int{0, 2, 1, 3} {
			t[m] |= uint32(m>>bit&1) << (8 * sym)
		}
	}
	return t
}()

// decideBPSK hard-decides the BPSK symbols of src, len(src) a positive
// multiple of four, into dst[i*stride]: per symbol the real part is
// divided by d and then by scale (VDIVPD twice), then v = (x+1)·0.5 —
// exactly (x+1)/2 — is compared v >= 0.5, which is pamDecide for L = 2,
// NaN deciding 0. len(dst) must exceed (len(src)−1)·stride.
// Implemented in batch_amd64.s.
//
//go:noescape
func decideBPSK(src []complex128, d, scale float64, dst []byte, stride int)
