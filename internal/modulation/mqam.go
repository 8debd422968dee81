// Package modulation implements the constellations the paper's links use
// — BPSK (b = 1), Gray-coded rectangular/square MQAM (b = 2..16), and a
// GMSK approximation for the underlay testbed — together with the
// theoretical BER expressions of Section 2.3 (eqs. 5 and 6) that define
// the ebtable.
package modulation

import (
	"fmt"
	"math"
)

// Scheme is a memoryless constellation mapper with unit average symbol
// energy.
type Scheme struct {
	// BitsPerSymbol is the constellation size exponent b; M = 2^b.
	BitsPerSymbol int

	bi, bq int // bits on the I and Q rails
	scale  float64
	lut    *lut // per-rail batch tables, built eagerly by New
}

// New returns the constellation carrying b bits per symbol. b = 1 is
// BPSK; even b is square MQAM; odd b >= 3 is rectangular QAM with
// ceil(b/2) bits on I and floor(b/2) on Q. b outside [1, 16] errors —
// the paper sweeps exactly that range.
func New(b int) (*Scheme, error) {
	if b < 1 || b > 16 {
		return nil, fmt.Errorf("modulation: constellation size b=%d outside [1, 16]", b)
	}
	s := &Scheme{BitsPerSymbol: b}
	s.bi = (b + 1) / 2
	s.bq = b / 2
	li, lq := 1<<s.bi, 1<<s.bq
	// Per-rail mean energies for odd-integer levels {±1, ±3, ...}.
	e := float64(li*li-1) / 3
	if lq > 1 {
		e += float64(lq*lq-1) / 3
	}
	s.scale = 1 / math.Sqrt(e)
	s.lut = s.buildLUT()
	return s, nil
}

// MustNew is New for constant b known valid at compile time.
func MustNew(b int) *Scheme {
	s, err := New(b)
	if err != nil {
		panic(err)
	}
	return s
}

// HasQuadrature reports whether symbols carry bits on the Q rail, that
// is whether decisions read the imaginary part at all: false for BPSK,
// whose symbols and decisions are purely real.
func (s *Scheme) HasQuadrature() bool { return s.bq > 0 }

// Modulate maps bits (len must be a multiple of b) to unit-energy complex
// symbols.
func (s *Scheme) Modulate(bits []byte) ([]complex128, error) {
	return s.ModulateInto(bits, nil)
}

// ModulateInto is Modulate writing into dst (grown as needed), so block
// loops can reuse one symbol buffer.
func (s *Scheme) ModulateInto(bits []byte, dst []complex128) ([]complex128, error) {
	if len(bits)%s.BitsPerSymbol != 0 {
		return nil, fmt.Errorf("modulation: %d bits not a multiple of b=%d", len(bits), s.BitsPerSymbol)
	}
	n := len(bits) / s.BitsPerSymbol
	if cap(dst) < n {
		dst = make([]complex128, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = s.MapSymbol(bits[i*s.BitsPerSymbol : (i+1)*s.BitsPerSymbol])
	}
	return dst, nil
}

// MapSymbol maps exactly b bits to one symbol.
func (s *Scheme) MapSymbol(bits []byte) complex128 {
	if len(bits) != s.BitsPerSymbol {
		panic(fmt.Sprintf("modulation: MapSymbol got %d bits, want %d", len(bits), s.BitsPerSymbol))
	}
	iBits := bitsToUint(bits[:s.bi])
	re := pamLevel(grayEncode(iBits), 1<<s.bi)
	im := 0.0
	if s.bq > 0 {
		qBits := bitsToUint(bits[s.bi:])
		im = pamLevel(grayEncode(qBits), 1<<s.bq)
	}
	return complex(re*s.scale, im*s.scale)
}

// Demodulate hard-decides received symbols back to bits.
func (s *Scheme) Demodulate(syms []complex128) []byte {
	return s.DemodulateInto(syms, nil)
}

// DemodulateInto is Demodulate writing into dst (grown as needed), so
// block loops can reuse one bit buffer.
func (s *Scheme) DemodulateInto(syms []complex128, dst []byte) []byte {
	n := len(syms) * s.BitsPerSymbol
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	for i, y := range syms {
		s.DecideSymbol(y, dst[i*s.BitsPerSymbol:(i+1)*s.BitsPerSymbol])
	}
	return dst
}

// DecideSymbol hard-decides one received symbol into dst (len b).
func (s *Scheme) DecideSymbol(y complex128, dst []byte) {
	iIdx := pamDecide(real(y)/s.scale, 1<<s.bi)
	uintToBits(grayDecode(iIdx), dst[:s.bi])
	if s.bq > 0 {
		qIdx := pamDecide(imag(y)/s.scale, 1<<s.bq)
		uintToBits(grayDecode(qIdx), dst[s.bi:])
	}
}

// pamLevel maps a Gray-coded index in [0, L) to the odd-integer grid
// {-(L-1), ..., -1, 1, ..., L-1}.
func pamLevel(gray uint, l int) float64 {
	return float64(2*int(gray) - (l - 1))
}

// pamDecide maps an unnormalised coordinate back to the nearest index:
// the rounded grid position v = (x+L−1)/2, clamped to [0, L−1]. The
// clamp runs in float before any conversion, because converting +Inf,
// NaN or |v| >= 2^63 to int is implementation-defined (amd64 gives the
// minimum int, arm64 saturates): NaN decides 0 and +Inf decides L−1 on
// every architecture. Every finite v below 2^63 decides as the rounded
// and clamped conversion did, since v < 0.5 rounds to at most 0 and
// v >= L−1.5 to at least L−1 (Round takes halves away from zero).
func pamDecide(x float64, l int) uint {
	v := (x + float64(l-1)) / 2
	if !(v >= 0.5) {
		return 0
	}
	if v >= float64(l)-1.5 {
		return uint(l - 1)
	}
	return uint(int(math.Round(v)))
}

func grayEncode(v uint) uint { return v ^ (v >> 1) }

func grayDecode(g uint) uint {
	v := g
	for shift := uint(1); shift < 32; shift <<= 1 {
		v ^= v >> shift
	}
	return v
}

func bitsToUint(bits []byte) uint {
	var v uint
	for _, b := range bits {
		v = v<<1 | uint(b&1)
	}
	return v
}

func uintToBits(v uint, dst []byte) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = byte(v & 1)
		v >>= 1
	}
}
