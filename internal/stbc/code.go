// Package stbc implements the space-time block codes the cooperative
// links are "coded with ... (such as Alamouti code)" (Section 2.3):
// SISO passthrough, the Alamouti code for two cooperative transmitters,
// and the rate-3/4 complex orthogonal designs for three and four
// transmitters, plus a maximal-ratio receive combiner.
//
// Codes are described by a symbolic T-by-Nt generator whose entries are
// 0, ±s_k, or ±conj(s_k); encoding instantiates the generator, and
// decoding builds the equivalent real-valued channel matrix, which for
// orthogonal designs is column-orthogonal, so matched filtering is
// maximum-likelihood per symbol.
package stbc

import (
	"fmt"
	"math/cmplx"

	"repro/internal/mathx"
)

// entry is one generator cell: Coef * s_Sym, conjugated if Conj.
// Sym < 0 means the cell transmits nothing.
type entry struct {
	Sym  int
	Conj bool
	Coef complex128
}

// symEntry locates one generator cell carrying a given symbol: row t,
// antenna a, conjugation flag and coefficient. The decoder walks these
// lists instead of scanning the full T-by-Nt generator for every basis
// vector, which keeps the matched filter allocation-free and skips the
// structural zeros.
type symEntry struct {
	t, a int
	conj bool
	coef complex128
}

// pureRun is one matched-filter term of the batched decoder: the cell
// in generator row t and antenna column a that carries the symbol, with
// the part basis products folded to scalars. The scalar decoder forms
// e.coef*sv*h left to right. Every design here has real coefs (±1) and
// a symbol at most once per row, so one term is the whole row's sum and
// e.coef*sv is real (r) for the real-part basis value sv = 1 and
// imaginary (q·i) for the imaginary-part one sv = i, conjugation
// included. newCode panics on a design that breaks this, so the batched
// decoder needs no general complex-product path.
type pureRun struct {
	t, a int
	r, q float64
}

// Code is an orthogonal space-time block code.
type Code struct {
	name string
	nt   int       // transmit antennas
	k    int       // symbols per block
	gen  [][]entry // T x Nt generator

	// perSym[k] lists the generator cells transmitting symbol k in
	// row-major order, precomputed at construction.
	perSym [][]symEntry

	// perSymRuns[k] is the batched-decoder index: symbol k's cells in
	// row-major order with their basis products folded in.
	perSymRuns [][]pureRun
}

// newCode finalises a code: it indexes the generator by symbol so the
// decode hot path never rescans it, and precompiles the run table the
// batched decoder streams over.
func newCode(c *Code) *Code {
	c.perSym = make([][]symEntry, c.k)
	for t, row := range c.gen {
		for a, e := range row {
			if e.Sym < 0 {
				continue
			}
			c.perSym[e.Sym] = append(c.perSym[e.Sym],
				symEntry{t: t, a: a, conj: e.Conj, coef: e.Coef})
		}
	}
	c.perSymRuns = make([][]pureRun, c.k)
	for k, entries := range c.perSym {
		for i, e := range entries {
			sv0, sv1 := complex(1, 0), complex(0, 1)
			if e.conj {
				sv0, sv1 = cmplx.Conj(sv0), cmplx.Conj(sv1)
			}
			ce0, ce1 := e.coef*sv0, e.coef*sv1
			if (i > 0 && entries[i-1].t == e.t) || imag(ce0) != 0 || real(ce1) != 0 {
				panic(fmt.Sprintf("stbc: %s symbol %d in row %d shares the row or has a complex coefficient", c.name, k, e.t))
			}
			c.perSymRuns[k] = append(c.perSymRuns[k], pureRun{t: e.t, a: e.a, r: real(ce0), q: imag(ce1)})
		}
	}
	return c
}

// Name returns the code's human-readable name.
func (c *Code) Name() string { return c.name }

// Nt returns the number of transmit antennas.
func (c *Code) Nt() int { return c.nt }

// BlockSymbols returns K, the symbols carried per block.
func (c *Code) BlockSymbols() int { return c.k }

// BlockLen returns T, the channel uses per block.
func (c *Code) BlockLen() int { return len(c.gen) }

// Rate returns K/T.
func (c *Code) Rate() float64 { return float64(c.k) / float64(len(c.gen)) }

// SISO is the trivial single-antenna "code".
func SISO() *Code {
	return newCode(&Code{
		name: "SISO",
		nt:   1,
		k:    1,
		gen:  [][]entry{{{Sym: 0, Coef: 1}}},
	})
}

// Alamouti is the rate-1 orthogonal design for two transmit antennas.
func Alamouti() *Code {
	return newCode(&Code{
		name: "Alamouti",
		nt:   2,
		k:    2,
		gen: [][]entry{
			{{Sym: 0, Coef: 1}, {Sym: 1, Coef: 1}},
			{{Sym: 1, Conj: true, Coef: -1}, {Sym: 0, Conj: true, Coef: 1}},
		},
	})
}

// OSTBC3 is the rate-3/4 complex orthogonal design for three antennas.
func OSTBC3() *Code {
	n := entry{Sym: -1}
	return newCode(&Code{
		name: "OSTBC3 (rate 3/4)",
		nt:   3,
		k:    3,
		gen: [][]entry{
			{{Sym: 0, Coef: 1}, {Sym: 1, Coef: 1}, {Sym: 2, Coef: 1}},
			{{Sym: 1, Conj: true, Coef: -1}, {Sym: 0, Conj: true, Coef: 1}, n},
			{{Sym: 2, Conj: true, Coef: -1}, n, {Sym: 0, Conj: true, Coef: 1}},
			{n, {Sym: 2, Conj: true, Coef: -1}, {Sym: 1, Conj: true, Coef: 1}},
		},
	})
}

// OSTBC4 is the rate-3/4 complex orthogonal design for four antennas.
func OSTBC4() *Code {
	n := entry{Sym: -1}
	return newCode(&Code{
		name: "OSTBC4 (rate 3/4)",
		nt:   4,
		k:    3,
		gen: [][]entry{
			{{Sym: 0, Coef: 1}, {Sym: 1, Coef: 1}, {Sym: 2, Coef: 1}, n},
			{{Sym: 1, Conj: true, Coef: -1}, {Sym: 0, Conj: true, Coef: 1}, n, {Sym: 2, Coef: 1}},
			{{Sym: 2, Conj: true, Coef: -1}, n, {Sym: 0, Conj: true, Coef: 1}, {Sym: 1, Coef: -1}},
			{n, {Sym: 2, Conj: true, Coef: -1}, {Sym: 1, Conj: true, Coef: 1}, {Sym: 0, Coef: 1}},
		},
	})
}

// registered holds one immutable instance per transmitter count; codes
// are read-only after construction, so every caller can share them and
// the per-symbol decode index is built exactly once per process.
var registered = [5]*Code{nil, SISO(), Alamouti(), OSTBC3(), OSTBC4()}

// ForTransmitters returns the code the paper's clusters would run for the
// given cooperative transmitter count (1..4). The returned code is a
// shared immutable instance; construction cost is paid once per process.
func ForTransmitters(mt int) (*Code, error) {
	if mt < 1 || mt >= len(registered) {
		return nil, fmt.Errorf("stbc: no orthogonal design registered for mt=%d", mt)
	}
	return registered[mt], nil
}

// Encode maps one block of K symbols to the T-by-Nt transmit matrix
// (row = channel use, column = antenna).
func (c *Code) Encode(syms []complex128) *mathx.CMat {
	return c.EncodeInto(syms, nil)
}

// EncodeInto is Encode writing into x (reshaped as needed; allocated
// when nil), so per-block encoding can reuse one scratch matrix.
func (c *Code) EncodeInto(syms []complex128, x *mathx.CMat) *mathx.CMat {
	if len(syms) != c.k {
		panic(fmt.Sprintf("stbc: %s encodes %d symbols, got %d", c.name, c.k, len(syms)))
	}
	x = mathx.EnsureShape(x, len(c.gen), c.nt).Zero()
	for t, row := range c.gen {
		for a, e := range row {
			if e.Sym < 0 {
				continue
			}
			s := syms[e.Sym]
			if e.Conj {
				s = cmplx.Conj(s)
			}
			x.Set(t, a, e.Coef*s)
		}
	}
	return x
}

// Transmit passes an encoded block through channel h (mr-by-nt) and
// returns the noiseless T-by-mr receive matrix. Per-antenna amplitudes
// are not rescaled here; energy policy belongs to the caller.
func (c *Code) Transmit(x *mathx.CMat, h *mathx.CMat) *mathx.CMat {
	if h.Cols != c.nt {
		panic(fmt.Sprintf("stbc: channel has %d tx ports, code needs %d", h.Cols, c.nt))
	}
	// y[t][j] = sum_a x[t][a] * h[j][a]  =>  Y = X * H^T.
	return x.Mul(h.Transpose())
}

// Decode matched-filters the received T-by-mr block y against channel h
// and returns the K soft symbol estimates. For orthogonal designs this is
// exact per-symbol maximum likelihood; estimates are normalised so that,
// absent noise, Decode(Transmit(Encode(s), h), h) == s.
func (c *Code) Decode(y, h *mathx.CMat) []complex128 {
	return c.DecodeInto(y, h, nil)
}

// DecodeInto is Decode writing the estimates into out (grown as needed),
// so per-block decoding allocates nothing in steady state. It walks the
// precomputed per-symbol generator index rather than scanning all T*Nt
// cells per basis vector, visiting exactly the terms the dense matched
// filter would accumulate, in the same order, so the estimates match
// Decode bit for bit.
func (c *Code) DecodeInto(y, h *mathx.CMat, out []complex128) []complex128 {
	t, mr := y.Rows, y.Cols
	if t != len(c.gen) {
		panic(fmt.Sprintf("stbc: block length %d, code uses %d", t, len(c.gen)))
	}
	if cap(out) < c.k {
		out = make([]complex128, c.k)
	}
	out = out[:c.k]
	for k := 0; k < c.k; k++ {
		var reDot, reN2, imDot, imN2 float64
		entries := c.perSym[k]
		for part := 0; part < 2; part++ {
			s := complex(1, 0)
			if part == 1 {
				s = complex(0, 1)
			}
			dot, n2 := 0.0, 0.0
			// Entries are row-major, so consecutive runs share a row t.
			for start := 0; start < len(entries); {
				row := entries[start].t
				end := start + 1
				for end < len(entries) && entries[end].t == row {
					end++
				}
				for j := 0; j < mr; j++ {
					var acc complex128
					for _, e := range entries[start:end] {
						sv := s
						if e.conj {
							sv = cmplx.Conj(sv)
						}
						acc += e.coef * sv * h.At(j, e.a)
					}
					re, im := real(acc), imag(acc)
					yv := y.At(row, j)
					dot += re * real(yv)
					dot += im * imag(yv)
					n2 += re * re
					n2 += im * im
				}
				start = end
			}
			if part == 0 {
				reDot, reN2 = dot, n2
			} else {
				imDot, imN2 = dot, n2
			}
		}
		re, im := 0.0, 0.0
		if reN2 > 0 {
			re = reDot / reN2
		}
		if imN2 > 0 {
			im = imDot / imN2
		}
		out[k] = complex(re, im)
	}
	return out
}
