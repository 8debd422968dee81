package coop

import (
	"math"
	"testing"

	"repro/internal/mathx"
)

// laneSpecials are the float64 edge values the tape scatter must treat
// exactly as the pure-Go loop does: signed zeros, subnormals, the
// extremes, infinities and NaNs of either sign, quiet and signalling.
var laneSpecials = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 3.25, -1e-300,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1.8p-1040,
	math.MaxFloat64, -math.MaxFloat64, 1e300, math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0xfff8000000000123), math.Float64frombits(0x7ff0000000000001),
}

// sameFloat reports bitwise equality, with every NaN equal to every
// other. NaN payloads are not part of the contract: when both operands
// of a multiply are NaN, x86 returns the first one's, and Go's compiler
// may order a commutative operation's operands either way.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// FuzzLaneKernels requires the AVX2 tape scatter to match the pure-Go
// loop on 1 to 8 lanes of 0 to 13 blocks, at both lane offsets and an
// arbitrary scale s. The tape cycles through a, b, c, d and laneSpecials
// from an offset; the shape word picks the length, the lane count, the
// stride's padding and the offset. The stbc and modulation packages
// fuzz the hop's other lane kernels. It skips where mathx.HasAVX2 is
// false.
func FuzzLaneKernels(f *testing.F) {
	f.Add(uint16(0), 0.0, 0.0, 0.0, 0.0, 1.0)
	f.Add(uint16(13), 1.0, -1.0, 0.5, -0.5, 1/math.Sqrt2)
	f.Add(uint16(4+14*1+112*1), -2.5, 0x1p-1030, math.Inf(1), math.NaN(), -1e-300)
	f.Add(uint16(7+14*3+112*2+336*3), math.MaxFloat64, math.Copysign(0, -1), 3.25, 1e300, 0.0)
	f.Add(uint16(12+14*7+336*11), 0x0.fffffffffffffp-1022, -2.5, 0x1p-1074, -1.0, math.Inf(-1))
	f.Fuzz(func(t *testing.T, shape uint16, a, b, c, d, s float64) {
		if !mathx.HasAVX2() {
			t.Skip("no AVX2 tape scatter in this process")
		}
		n, lanes := int(shape%14), int(shape/14)%8+1
		stride, turn := 2*lanes+int(shape/112)%3, int(shape/336)
		vals := append([]float64{a, b, c, d}, laneSpecials...)
		tape := make([]float64, stride*n)
		for i := range tape {
			tape[i] = vals[(turn+i)%len(vals)]
		}
		var got, want mathx.BatchCF64
		for _, off := range []int{0, stride - 2*lanes} {
			want.Resize(lanes, n)
			got.Resize(lanes, n)
			scatterCN(&want, tape, off, stride, s, false)
			scatterCN(&got, tape, off, stride, s, true)
			for i, w := range want.Data {
				g := got.Data[i]
				if !sameFloat(real(g), real(w)) || !sameFloat(imag(g), imag(w)) {
					t.Fatalf("scatter off %d: entry %d (lane %d, block %d): vector %v, pure-Go %v",
						off, i, i/n, i%n, g, w)
				}
			}
		}
	})
}
