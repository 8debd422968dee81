package stbc

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/mathx"
)

// laneSpecials are the float64 edge values the lane kernels must treat
// exactly as the pure-Go loops do: signed zeros, subnormals, the
// extremes, infinities and NaNs of either sign, quiet and signalling.
var laneSpecials = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 3.25, -1e-300,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1.8p-1040,
	math.MaxFloat64, -math.MaxFloat64, 1e300, math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0xfff8000000000123), math.Float64frombits(0x7ff0000000000001),
}

// laneSource turns fuzz bytes into lane values. A byte below 0x80 picks
// a special; any other byte takes the next eight bytes as a float64's
// raw bits. Once the bytes run out it starts over one value further
// into the specials, so short inputs still cover them all.
type laneSource struct {
	data []byte
	pos  int
	turn int
}

func (s *laneSource) next() float64 {
	if s.pos >= len(s.data) {
		s.pos = 0
		s.turn++
		if len(s.data) == 0 {
			return laneSpecials[s.turn%len(laneSpecials)]
		}
	}
	b := s.data[s.pos]
	s.pos++
	if b >= 0x80 && s.pos+8 <= len(s.data) {
		v := math.Float64frombits(binary.LittleEndian.Uint64(s.data[s.pos:]))
		s.pos += 8
		return v
	}
	return laneSpecials[(int(b)+s.turn)%len(laneSpecials)]
}

// fill resizes b to lanes-by-n and fills every entry from the source.
func (s *laneSource) fill(b *mathx.BatchCF64, lanes, n int) *mathx.BatchCF64 {
	b.Resize(lanes, n)
	for i := range b.Data {
		b.Data[i] = complex(s.next(), s.next())
	}
	return b
}

// sameFloat reports bitwise equality, with every NaN equal to every
// other. NaN payloads are not part of the contract: when both operands
// of an add or a multiply are NaN, x86 returns the first one's, and Go's
// compiler may order a commutative operation's operands either way.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// sameBatch fails the test at the first entry where got and want differ.
func sameBatch(t *testing.T, what string, got, want *mathx.BatchCF64) {
	t.Helper()
	if got.Lanes != want.Lanes || got.N != want.N {
		t.Fatalf("%s: vector batch %dx%d, pure-Go %dx%d", what, got.Lanes, got.N, want.Lanes, want.N)
	}
	for i, w := range want.Data {
		g := got.Data[i]
		if !sameFloat(real(g), real(w)) || !sameFloat(imag(g), imag(w)) {
			t.Fatalf("%s: entry %d (lane %d, block %d): vector %v, pure-Go %v",
				what, i, i/want.N, i%want.N, g, w)
		}
	}
}

// FuzzLaneKernels requires the AVX2 transmit and decode kernels to match
// the pure-Go loops on arbitrary float64 lanes of 0 to 13 blocks: the
// transmit pass with and without noise and the pure-run decode with and
// without the imaginary part, on every code design (the half-rate ones
// too) and 1 to 4 receive antennas; the shape word picks those. It
// skips where mathx.HasAVX2 is false.
func FuzzLaneKernels(f *testing.F) {
	specials := make([]byte, len(laneSpecials))
	for i := range specials {
		specials[i] = byte(i)
	}
	raw := []byte{0x80}
	raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(-2.5))
	raw = append(raw, 0x81)
	raw = binary.LittleEndian.AppendUint64(raw, 0x000fffffffffffff) // largest subnormal
	f.Add(uint16(0), []byte(nil))
	f.Add(uint16(13), specials)
	f.Add(uint16(4+14*1+84*1), specials)
	f.Add(uint16(7+14*3+84*3), raw)
	f.Add(uint16(12+14*5+84*2), append(specials, raw...))
	codes := batchTestCodes()
	f.Fuzz(func(t *testing.T, shape uint16, data []byte) {
		if !mathx.HasAVX2() {
			t.Skip("no AVX2 lane kernels in this process")
		}
		n := int(shape % 14)
		code := codes[int(shape/14)%len(codes)]
		mr := int(shape/84)%4 + 1
		src := &laneSource{data: data}
		nt, bl := code.Nt(), code.BlockLen()

		// Transmit: encoded cells through the taps, with and without
		// the noise tape.
		var x, h, nz, got, want mathx.BatchCF64
		src.fill(&x, bl*nt, n)
		src.fill(&h, mr*nt, n)
		src.fill(&nz, bl*mr, n)
		for _, noise := range []*mathx.BatchCF64{nil, &nz} {
			code.transmitBatchInto(&x, &h, noise, &want, mr, false)
			code.transmitBatchInto(&x, &h, noise, &got, mr, true)
			sameBatch(t, fmt.Sprintf("%s transmit mr=%d noise=%v", code.Name(), mr, noise != nil), &got, &want)
		}

		// Decode: arbitrary receive samples, both estimate shapes.
		var y mathx.BatchCF64
		var ws BatchWorkspace
		src.fill(&y, bl*mr, n)
		for _, needIm := range []bool{true, false} {
			code.decodeBatchInto(&ws, &y, &h, mr, &want, needIm, false)
			code.decodeBatchInto(&ws, &y, &h, mr, &got, needIm, true)
			sameBatch(t, fmt.Sprintf("%s decode mr=%d needIm=%v", code.Name(), mr, needIm), &got, &want)
		}
	})
}
