package modulation

import (
	"fmt"

	"repro/internal/mathx"
)

// Batched structure-of-arrays mapping. The scalar Modulate/Demodulate
// walk one symbol at a time through MapSymbol/DecideSymbol, paying the
// Gray-code bit fiddling per call; the batch variants use the per-rail
// level and bit tables precomputed by New and stream whole lanes, so
// the per-symbol work collapses to a table index. Outputs are
// bit-identical to the scalar path: the tables are filled by the exact
// pamLevel/grayEncode/grayDecode arithmetic the scalar path runs.

// lut holds the per-rail constellation tables: levels maps a rail's
// bit pattern to its (unscaled) PAM level, bits maps a decided rail
// index to its Gray-decoded bit pattern (railBits bytes per entry).
type lut struct {
	iLevels, qLevels []float64
	iBits, qBits     []byte // flattened: entry idx occupies [idx*rail : (idx+1)*rail]
}

// buildLUT fills the tables using the same arithmetic as MapSymbol and
// DecideSymbol, so table-driven outputs match the scalar path exactly.
// Rails hold at most 8 bits (b <= 16), so the tables stay tiny.
func (s *Scheme) buildLUT() *lut {
	li, lq := 1<<s.bi, 1<<s.bq
	t := &lut{
		iLevels: make([]float64, li),
		iBits:   make([]byte, li*s.bi),
	}
	for v := 0; v < li; v++ {
		t.iLevels[v] = pamLevel(grayEncode(uint(v)), li)
		uintToBits(grayDecode(uint(v)), t.iBits[v*s.bi:(v+1)*s.bi])
	}
	if s.bq > 0 {
		t.qLevels = make([]float64, lq)
		t.qBits = make([]byte, lq*s.bq)
		for v := 0; v < lq; v++ {
			t.qLevels[v] = pamLevel(grayEncode(uint(v)), lq)
			uintToBits(grayDecode(uint(v)), t.qBits[v*s.bq:(v+1)*s.bq])
		}
	}
	return t
}

// ModulateBatchInto maps bits to symbols in SoA layout: dst must have
// at least `lanes` lanes of n entries, and bits must hold n*lanes*b
// bits laid out element-major (element i's symbols occupy
// bits[i*lanes*b : (i+1)*lanes*b]). Lane k, entry i receives the
// symbol of bits [i*lanes*b+k*b : i*lanes*b+(k+1)*b], exactly the
// value MapSymbol returns for those bits.
func (s *Scheme) ModulateBatchInto(bits []byte, dst *mathx.BatchCF64, lanes, n int) error {
	b := s.BitsPerSymbol
	if len(bits) != lanes*n*b {
		return fmt.Errorf("modulation: %d bits for a %dx%d batch of b=%d symbols", len(bits), lanes, n, b)
	}
	if dst.Lanes < lanes || dst.N != n {
		return fmt.Errorf("modulation: batch is %dx%d, need %dx%d", dst.Lanes, dst.N, lanes, n)
	}
	t := s.lut
	stride := lanes * b
	if b == 1 {
		// BPSK: one bit per symbol, pure I rail — a straight table walk.
		for k := 0; k < lanes; k++ {
			lane := dst.Lane(k)[:n]
			idx := k
			for i := range lane {
				lane[i] = complex(t.iLevels[bits[idx]&1]*s.scale, 0)
				idx += stride
			}
		}
		return nil
	}
	for k := 0; k < lanes; k++ {
		lane := dst.Lane(k)[:n]
		off := k * b
		for i := range lane {
			base := i*stride + off
			iIdx := bitsToUint(bits[base : base+s.bi])
			re := t.iLevels[iIdx]
			im := 0.0
			if s.bq > 0 {
				qIdx := bitsToUint(bits[base+s.bi : base+b])
				im = t.qLevels[qIdx]
			}
			lane[i] = complex(re*s.scale, im*s.scale)
		}
	}
	return nil
}

// DemodulateBatchDivInto is DemodulateBatchInto with every symbol first
// divided by div — the decoder's estimate-rescaling step — fused into
// the decision pass. The division is the same complex division the
// scalar path performs on each estimate, so decisions match
// DecideSymbol(sym/div, ...) bit for bit.
//
// The BPSK pass with a real divisor runs the AVX2 decision kernel where
// mathx.HasAVX2 reports it and the pure-Go loop, the reference,
// elsewhere. Both decide identically.
func (s *Scheme) DemodulateBatchDivInto(src *mathx.BatchCF64, div complex128, lanes, n int, dst []byte) error {
	return s.demodulateBatchDivInto(src, div, lanes, n, dst, mathx.HasAVX2())
}

// demodulateBatchDivInto is DemodulateBatchDivInto with the BPSK pass on
// the AVX2 kernel when vector is set, on the pure-Go loop otherwise.
func (s *Scheme) demodulateBatchDivInto(src *mathx.BatchCF64, div complex128, lanes, n int, dst []byte, vector bool) error {
	b := s.BitsPerSymbol
	if len(dst) != lanes*n*b {
		return fmt.Errorf("modulation: %d dst bits for a %dx%d batch of b=%d symbols", len(dst), lanes, n, b)
	}
	if src.Lanes < lanes || src.N != n {
		return fmt.Errorf("modulation: batch is %dx%d, need %dx%d", src.Lanes, src.N, lanes, n)
	}
	t := s.lut
	stride := lanes * b
	li, lq := 1<<s.bi, 1<<s.bq
	if imag(div) == 0 {
		// Real divisor (the decoder's sqrt-energy scale, always real):
		// the runtime complex division reduces to one scalar divide per
		// rail — Smith's algorithm with a zero ratio yields exactly
		// re/d and im/d whenever they are nonzero, and the signed-zero
		// corner decides the same constellation point either way — so
		// decisions match the full division bit for bit.
		d := real(div)
		if b == 1 {
			// The AVX2 kernel takes each lane's whole groups of four;
			// the loop below finishes the rest.
			v := 0
			if vector {
				v = n &^ 3
			}
			for k := 0; k < lanes; k++ {
				lane := src.Lane(k)[:n]
				if v > 0 {
					decideBPSK(lane[:v], d, s.scale, dst[k:], stride)
				}
				idx := k + v*stride
				for _, y := range lane[v:] {
					dst[idx] = t.iBits[pamDecide(real(y)/d/s.scale, li)]
					idx += stride
				}
			}
			return nil
		}
		for k := 0; k < lanes; k++ {
			lane := src.Lane(k)[:n]
			off := k * b
			for i, y := range lane {
				base := i*stride + off
				iIdx := int(pamDecide(real(y)/d/s.scale, li)) * s.bi
				for j := 0; j < s.bi; j++ {
					dst[base+j] = t.iBits[iIdx+j]
				}
				if s.bq > 0 {
					qIdx := int(pamDecide(imag(y)/d/s.scale, lq)) * s.bq
					for j := 0; j < s.bq; j++ {
						dst[base+s.bi+j] = t.qBits[qIdx+j]
					}
				}
			}
		}
		return nil
	}
	if b == 1 {
		for k := 0; k < lanes; k++ {
			lane := src.Lane(k)[:n]
			idx := k
			for _, y := range lane {
				y /= div
				dst[idx] = t.iBits[pamDecide(real(y)/s.scale, li)]
				idx += stride
			}
		}
		return nil
	}
	for k := 0; k < lanes; k++ {
		lane := src.Lane(k)[:n]
		off := k * b
		for i, y := range lane {
			y /= div
			base := i*stride + off
			iIdx := int(pamDecide(real(y)/s.scale, li)) * s.bi
			for j := 0; j < s.bi; j++ {
				dst[base+j] = t.iBits[iIdx+j]
			}
			if s.bq > 0 {
				qIdx := int(pamDecide(imag(y)/s.scale, lq)) * s.bq
				for j := 0; j < s.bq; j++ {
					dst[base+s.bi+j] = t.qBits[qIdx+j]
				}
			}
		}
	}
	return nil
}

// DemodulateBatchInto hard-decides an SoA symbol batch back to bits in
// the element-major layout ModulateBatchInto consumes: lane k, entry i
// decides into dst[i*lanes*b+k*b : i*lanes*b+(k+1)*b]. Decisions are
// bit-identical to DecideSymbol on each entry.
func (s *Scheme) DemodulateBatchInto(src *mathx.BatchCF64, lanes, n int, dst []byte) error {
	b := s.BitsPerSymbol
	if len(dst) != lanes*n*b {
		return fmt.Errorf("modulation: %d dst bits for a %dx%d batch of b=%d symbols", len(dst), lanes, n, b)
	}
	if src.Lanes < lanes || src.N != n {
		return fmt.Errorf("modulation: batch is %dx%d, need %dx%d", src.Lanes, src.N, lanes, n)
	}
	t := s.lut
	stride := lanes * b
	li, lq := 1<<s.bi, 1<<s.bq
	if b == 1 {
		// BPSK: a single I-rail decision per symbol, one byte out.
		for k := 0; k < lanes; k++ {
			lane := src.Lane(k)[:n]
			idx := k
			for _, y := range lane {
				dst[idx] = t.iBits[pamDecide(real(y)/s.scale, li)]
				idx += stride
			}
		}
		return nil
	}
	for k := 0; k < lanes; k++ {
		lane := src.Lane(k)[:n]
		off := k * b
		for i, y := range lane {
			base := i*stride + off
			iIdx := int(pamDecide(real(y)/s.scale, li)) * s.bi
			for j := 0; j < s.bi; j++ {
				dst[base+j] = t.iBits[iIdx+j]
			}
			if s.bq > 0 {
				qIdx := int(pamDecide(imag(y)/s.scale, lq)) * s.bq
				for j := 0; j < s.bq; j++ {
					dst[base+s.bi+j] = t.qBits[qIdx+j]
				}
			}
		}
	}
	return nil
}
