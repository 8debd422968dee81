package modulation

import (
	"math"
	"testing"

	"repro/internal/mathx"
)

// FuzzModulateRoundTrip drives arbitrary bit patterns through every
// constellation and requires noiseless demodulation to be the identity.
func FuzzModulateRoundTrip(f *testing.F) {
	f.Add(uint8(1), []byte{0, 1, 1, 0})
	f.Add(uint8(4), []byte{1, 1, 1, 1})
	f.Add(uint8(16), make([]byte, 32))
	f.Fuzz(func(t *testing.T, bRaw uint8, bits []byte) {
		b := int(bRaw)%16 + 1
		s := MustNew(b)
		// Trim to a whole number of symbols and force bits binary.
		n := (len(bits) / b) * b
		bits = bits[:n]
		for i := range bits {
			bits[i] &= 1
		}
		syms, err := s.Modulate(bits)
		if err != nil {
			t.Fatalf("b=%d len=%d: %v", b, n, err)
		}
		back := s.Demodulate(syms)
		if len(back) != len(bits) {
			t.Fatalf("length changed: %d -> %d", len(bits), len(back))
		}
		for i := range bits {
			if back[i] != bits[i] {
				t.Fatalf("b=%d: bit %d corrupted without noise", b, i)
			}
		}
	})
}

// laneSpecials are the float64 edge values the decision kernel must
// treat exactly as the pure-Go loop does: signed zeros, subnormals, the
// extremes, infinities and NaNs of either sign, quiet and signalling.
var laneSpecials = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 3.25, -1e-300,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1.8p-1040,
	math.MaxFloat64, -math.MaxFloat64, 1e300, math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0xfff8000000000123), math.Float64frombits(0x7ff0000000000001),
}

// FuzzLaneKernels requires the AVX2 BPSK decision kernel to match the
// pure-Go loop on 1 to 4 lanes of 0 to 13 estimates under an arbitrary
// real divisor. The estimates cycle through a, b, c, d and laneSpecials
// from an offset; the shape word picks the length, the lane count and
// the offset. It skips where mathx.HasAVX2 is false.
func FuzzLaneKernels(f *testing.F) {
	f.Add(uint16(0), 0.0, 0.0, 0.0, 0.0, 1.0)
	f.Add(uint16(13), 1.0, -1.0, 0.5, -0.5, 2.75)
	f.Add(uint16(4+14*1+56*3), -2.5, 0x1p-1030, math.Inf(1), math.NaN(), -1e-300)
	f.Add(uint16(7+14*3+56*7), math.MaxFloat64, math.Copysign(0, -1), 3.25, 1e300, 0.0)
	f.Add(uint16(12+14*2+56*11), 0x1.0000000000001p-1, 0x1.fffffffffffffp-2, 0x0.fffffffffffffp-1022, -0.5, math.Copysign(0, -1))
	bpsk := MustNew(1)
	f.Fuzz(func(t *testing.T, shape uint16, a, b, c, d, div float64) {
		if !mathx.HasAVX2() {
			t.Skip("no AVX2 decision kernel in this process")
		}
		n, k, turn := int(shape%14), int(shape/14)%4+1, int(shape/56)
		vals := append([]float64{a, b, c, d}, laneSpecials...)
		est := mathx.NewBatchCF64(k, n)
		for i := range est.Data {
			est.Data[i] = complex(vals[(turn+i)%len(vals)], vals[(turn+i+1)%len(vals)])
		}
		want, got := make([]byte, k*n), make([]byte, k*n)
		if err := bpsk.demodulateBatchDivInto(est, complex(div, 0), k, n, want, false); err != nil {
			t.Fatal(err)
		}
		if err := bpsk.demodulateBatchDivInto(est, complex(div, 0), k, n, got, true); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("BPSK decision %d (lane %d, block %d) over %v: vector %d, pure-Go %d",
					i, i%k, i/k, div, got[i], want[i])
			}
		}
	})
}
