package stbc

import (
	"fmt"

	"repro/internal/mathx"
)

// Batched structure-of-arrays codecs. The scalar EncodeInto/DecodeInto
// process one T-by-Nt block at a time: every block pays the generator
// walk, the matrix index arithmetic and the call overhead on loops only
// a handful of iterations long. The batch variants lay N blocks out in
// SoA form — one contiguous lane per generator cell (encode), receive
// sample (t*mr+j), channel tap (j*nt+a) and symbol estimate (decode) —
// and walk the precompiled entry tables once per lane, so the inner
// loops run N long with no branches and hoisted bounds checks.
//
// Every arithmetic operation matches the scalar path exactly (same
// products, same accumulation order), so batched outputs are bitwise
// identical to per-block EncodeInto/DecodeInto: the golden tests in
// batch_test.go pin this for every registered code, including the
// half-rate designs.

// BatchWorkspace holds the decoder's per-element accumulator lanes so
// steady-state batched decoding allocates nothing. A workspace is not
// safe for concurrent use; keep one per worker.
type BatchWorkspace struct {
	dot, n2 mathx.BatchF64 // matched-filter sums, lane 0 = real part, 1 = imag
}

// EncodeBatchInto encodes N blocks at once: syms holds K lanes of N
// symbols, x receives T*Nt lanes with lane t*Nt+a carrying generator
// cell (t, a) of every block. Cell values equal EncodeInto's bit for
// bit; structural zeros stay zero.
func (c *Code) EncodeBatchInto(syms, x *mathx.BatchCF64) *mathx.BatchCF64 {
	if syms.Lanes < c.k {
		panic(fmt.Sprintf("stbc: %s encodes %d symbol lanes, got %d", c.name, c.k, syms.Lanes))
	}
	n := syms.N
	x.Resize(len(c.gen)*c.nt, n)
	for t, row := range c.gen {
		for a, e := range row {
			if e.Sym < 0 {
				zeroLane(x.Lane(t*c.nt + a)[:n])
				continue
			}
			encodeCell(x.Lane(t*c.nt+a), syms.Lane(e.Sym)[:n], e)
		}
	}
	return x
}

// EncodeBatchPerAntennaInto is EncodeBatchInto when each transmit
// antenna encodes its own (possibly divergent) symbol copy: symsPerAnt
// must hold Nt batches of K lanes each, and cell (t, a) encodes from
// symsPerAnt[a] — the cooperative-cluster situation where intra-cluster
// bit errors desynchronise the antennas' views of the block. With
// identical batches it reduces exactly to EncodeBatchInto.
func (c *Code) EncodeBatchPerAntennaInto(symsPerAnt []*mathx.BatchCF64, x *mathx.BatchCF64) *mathx.BatchCF64 {
	if len(symsPerAnt) != c.nt {
		panic(fmt.Sprintf("stbc: %s needs %d per-antenna batches, got %d", c.name, c.nt, len(symsPerAnt)))
	}
	n := symsPerAnt[0].N
	x.Resize(len(c.gen)*c.nt, n)
	for t, row := range c.gen {
		for a, e := range row {
			if e.Sym < 0 {
				zeroLane(x.Lane(t*c.nt + a)[:n])
				continue
			}
			encodeCell(x.Lane(t*c.nt+a), symsPerAnt[a].Lane(e.Sym)[:n], e)
		}
	}
	return x
}

// zeroLane clears one structurally-zero generator lane; live lanes are
// fully overwritten by encodeCell and need no clearing.
func zeroLane(dst []complex128) {
	for i := range dst {
		dst[i] = 0
	}
}

// encodeCell fills one generator-cell lane: the same conjugate-then-
// multiply the scalar encoder applies per block, over a whole lane.
func encodeCell(dst, src []complex128, e entry) {
	dst = dst[:len(src)]
	coef := e.Coef
	if e.Conj {
		for i, s := range src {
			dst[i] = coef * complex(real(s), -imag(s))
		}
		return
	}
	for i, s := range src {
		dst[i] = coef * s
	}
}

// TransmitBatchInto passes an encoded batch through per-block channels:
// x holds T*Nt lanes (EncodeBatchInto layout), h holds mr*Nt lanes with
// lane j*Nt+a carrying tap (receive j, transmit a) of every block, and
// y receives T*mr lanes with lane t*mr+j. The accumulation runs over
// a ascending with the scalar MulInto's zero-skip, so y matches
// x.MulInto(h.TransposeInto(...)) per block bit for bit.
//
// noise, when non-nil, must mirror y's T*mr-lane shape; each entry is
// added after that element's last antenna term — the same place the
// scalar path's channel.AWGN call lands — saving a separate
// read-modify-write pass over every y lane.
//
// The lane passes run the AVX2 kernels where mathx.HasAVX2 reports
// them and the pure-Go loops, the reference, elsewhere. Both give the
// same y.
func (c *Code) TransmitBatchInto(x, h, noise, y *mathx.BatchCF64, mr int) *mathx.BatchCF64 {
	return c.transmitBatchInto(x, h, noise, y, mr, mathx.HasAVX2())
}

// transmitBatchInto is TransmitBatchInto on the AVX2 kernels when
// vector is set, on the pure-Go loops otherwise.
func (c *Code) transmitBatchInto(x, h, noise, y *mathx.BatchCF64, mr int, vector bool) *mathx.BatchCF64 {
	n := x.N
	bl := len(c.gen)
	if h.Lanes != mr*c.nt || h.N != n {
		panic(fmt.Sprintf("stbc: channel batch is %dx%d, need %dx%d", h.Lanes, h.N, mr*c.nt, n))
	}
	if noise != nil && (noise.Lanes != bl*mr || noise.N != n) {
		panic(fmt.Sprintf("stbc: noise batch is %dx%d, need %dx%d", noise.Lanes, noise.N, bl*mr, n))
	}
	y.Resize(bl*mr, n).Zero()
	// The AVX2 kernels take whole two-block steps, the pure-Go loops the
	// odd block at the end.
	v := 0
	if vector {
		v = n &^ 1
	}
	var colBuf [8]int
	for t := 0; t < bl; t++ {
		// Structurally zero cells transmit whole-lane zeros the scalar
		// multiply would skip element by element; drop those lanes up
		// front and pair the live ones so each pass over a y lane folds
		// in two antennas — half the load/store traffic.
		cols := colBuf[:0]
		for a := 0; a < c.nt; a++ {
			if c.gen[t][a].Sym >= 0 {
				cols = append(cols, a)
			}
		}
		m := len(cols)
		for j := 0; j < mr; j++ {
			yL := y.Lane(t*mr + j)[:n]
			var nzL []complex128
			if noise != nil {
				nzL = noise.Lane(t*mr + j)[:n]
			}
			if m == 3 {
				// Three live antennas (both rate-3/4 designs): fold the
				// whole row — and the noise — into one pass over the lane.
				mulAdd3(yL,
					x.Lane(t*c.nt + cols[0])[:n], h.Lane(j*c.nt + cols[0])[:n],
					x.Lane(t*c.nt + cols[1])[:n], h.Lane(j*c.nt + cols[1])[:n],
					x.Lane(t*c.nt + cols[2])[:n], h.Lane(j*c.nt + cols[2])[:n],
					nzL, v)
				continue
			}
			ai := 0
			for ; ai+2 < m; ai += 2 {
				mulAdd2(yL,
					x.Lane(t*c.nt + cols[ai])[:n], h.Lane(j*c.nt + cols[ai])[:n],
					x.Lane(t*c.nt + cols[ai+1])[:n], h.Lane(j*c.nt + cols[ai+1])[:n],
					nil, v)
			}
			switch m - ai {
			case 2:
				mulAdd2(yL,
					x.Lane(t*c.nt + cols[ai])[:n], h.Lane(j*c.nt + cols[ai])[:n],
					x.Lane(t*c.nt + cols[ai+1])[:n], h.Lane(j*c.nt + cols[ai+1])[:n],
					nzL, v)
			case 1:
				mulAdd1(yL, x.Lane(t*c.nt + cols[ai])[:n], h.Lane(j*c.nt + cols[ai])[:n], nzL, v)
			default:
				if nzL != nil {
					for i := range yL {
						yL[i] += nzL[i]
					}
				}
			}
		}
	}
	return y
}

// The mulAdd kernels drop the scalar multiply's per-element zero-skip:
// live lanes only branch on it for exactly-zero symbols, and with the
// channel taps finite (Gaussian draws) a zero symbol's product is a
// signed zero, which leaves an accumulator that starts at +0 bit-for-
// bit unchanged — the same result skipping produces. The lanes here
// are always live (structural zeros are excluded by column selection),
// so the unconditional add is bit-identical and branch-free.

// mulAdd1 folds one antenna column into a receive lane, with the
// optional noise tape added after the term — where the scalar AWGN
// pass lands. The AVX2 kernel takes the first nv blocks (nv even),
// the loop the rest.
func mulAdd1(yL, xL, hL, nzL []complex128, nv int) {
	if nv > 0 {
		mulAdd1AVX2(yL[:nv], xL[:nv], hL[:nv], headOf(nzL, nv))
		yL, xL, hL, nzL = yL[nv:], xL[nv:], hL[nv:], restOf(nzL, nv)
	}
	if nzL == nil {
		for i, xv := range xL {
			yL[i] += xv * hL[i]
		}
		return
	}
	for i, xv := range xL {
		v := yL[i]
		v += xv * hL[i]
		yL[i] = v + nzL[i]
	}
}

// mulAdd2 folds two antenna columns (ascending order) into a receive
// lane in one pass, with the optional noise tape added last.
func mulAdd2(yL, xL0, hL0, xL1, hL1, nzL []complex128, nv int) {
	if nv > 0 {
		mulAdd2AVX2(yL[:nv], xL0[:nv], hL0[:nv], xL1[:nv], hL1[:nv], headOf(nzL, nv))
		yL, xL0, hL0, xL1, hL1, nzL = yL[nv:], xL0[nv:], hL0[nv:], xL1[nv:], hL1[nv:], restOf(nzL, nv)
	}
	if nzL == nil {
		for i := range yL {
			v := yL[i]
			v += xL0[i] * hL0[i]
			v += xL1[i] * hL1[i]
			yL[i] = v
		}
		return
	}
	for i := range yL {
		v := yL[i]
		v += xL0[i] * hL0[i]
		v += xL1[i] * hL1[i]
		yL[i] = v + nzL[i]
	}
}

// mulAdd3 folds three antenna columns (ascending order) into a receive
// lane in one pass, with the optional noise tape added last.
func mulAdd3(yL, xL0, hL0, xL1, hL1, xL2, hL2, nzL []complex128, nv int) {
	if nv > 0 {
		mulAdd3AVX2(yL[:nv], xL0[:nv], hL0[:nv], xL1[:nv], hL1[:nv], xL2[:nv], hL2[:nv], headOf(nzL, nv))
		yL, xL0, hL0, xL1, hL1, xL2, hL2, nzL = yL[nv:], xL0[nv:], hL0[nv:], xL1[nv:], hL1[nv:], xL2[nv:], hL2[nv:], restOf(nzL, nv)
	}
	if nzL == nil {
		for i := range yL {
			v := yL[i]
			v += xL0[i] * hL0[i]
			v += xL1[i] * hL1[i]
			v += xL2[i] * hL2[i]
			yL[i] = v
		}
		return
	}
	for i := range yL {
		v := yL[i]
		v += xL0[i] * hL0[i]
		v += xL1[i] * hL1[i]
		v += xL2[i] * hL2[i]
		yL[i] = v + nzL[i]
	}
}

// DecodeBatchInto matched-filters N received blocks at once: y holds
// T*mr lanes (TransmitBatchInto layout), h the mr*Nt channel lanes, and
// out receives K symbol-estimate lanes. Estimates are bit-identical to
// DecodeInto on each block: the precompiled run table visits
// exactly the terms the scalar decoder accumulates, in the same order.
//
// needIm false skips the imaginary-part estimate, for callers whose
// decisions never read it (BPSK): out then holds complex(re, 0), with
// re the same as when needIm is true. The lane passes run the AVX2
// kernels where mathx.HasAVX2 reports them and the pure-Go loops, the
// reference, elsewhere. Both give the same estimates.
func (c *Code) DecodeBatchInto(ws *BatchWorkspace, y, h *mathx.BatchCF64, mr int, out *mathx.BatchCF64, needIm bool) *mathx.BatchCF64 {
	return c.decodeBatchInto(ws, y, h, mr, out, needIm, mathx.HasAVX2())
}

// decodeBatchInto is DecodeBatchInto on the AVX2 kernels when vector is
// set, on the pure-Go loops otherwise.
func (c *Code) decodeBatchInto(ws *BatchWorkspace, y, h *mathx.BatchCF64, mr int, out *mathx.BatchCF64, needIm, vector bool) *mathx.BatchCF64 {
	n := y.N
	if y.Lanes != len(c.gen)*mr {
		panic(fmt.Sprintf("stbc: receive batch has %d lanes, code uses %d", y.Lanes, len(c.gen)*mr))
	}
	if h.Lanes != mr*c.nt || h.N != n {
		panic(fmt.Sprintf("stbc: channel batch is %dx%d, need %dx%d", h.Lanes, h.N, mr*c.nt, n))
	}
	out.Resize(c.k, n)
	ws.dot.Resize(2, n)
	ws.n2.Resize(2, n)
	// Every run is one pure term (see pureRun): the complex product
	// ce*h collapses to two scalar multiplies per part. fl(r*hre -
	// 0*him) is r*hre whenever it is nonzero, and the signed-zero cases
	// vanish into sums that hold +0, so the sums stay bit-identical to
	// the scalar decoder's general product.
	//
	// With vector set, the AVX2 kernels take the whole groups of four
	// blocks, [0, v), and the pure-Go loops the rest. The kernels keep a
	// group's sums in unpack order (blocks 0, 2, 1, 3), so every pass
	// over a symbol's sums — its runs and its divide — splits at the
	// same v, and no entry is ever written in both orders.
	v := 0
	if vector {
		v = n &^ 3
	}
	reDot, reN2 := ws.dot.Lane(0)[:n], ws.n2.Lane(0)[:n]
	// Without the imaginary part its sums are empty lanes: the loops
	// and kernels skip a part whose sums have no entries.
	imDot, imN2 := ws.dot.Lane(1)[:0], ws.n2.Lane(1)[:0]
	if needIm {
		imDot, imN2 = ws.dot.Lane(1)[:n], ws.n2.Lane(1)[:n]
	}
	iv := min(v, len(imDot))
	for k := 0; k < c.k; k++ {
		clear(reDot)
		clear(reN2)
		clear(imDot)
		clear(imN2)
		for _, run := range c.perSymRuns[k] {
			decodeRunPure(y, h, run, c.nt, mr, v, reDot, reN2, imDot, imN2)
		}
		outL := out.Lane(k)[:n]
		if v > 0 {
			divideAVX2(reDot[:v], reN2[:v], imDot[:iv], imN2[:iv], outL[:v])
		}
		divideLanes(reDot[v:], reN2[v:], imDot[iv:], imN2[iv:], outL[v:])
	}
	return out
}

// divideLanes writes the estimates dot/n2 of each part, 0 where n2 > 0
// fails; empty imaginary sums leave that part 0.
func divideLanes(reDot, reN2, imDot, imN2 []float64, outL []complex128) {
	reN2 = reN2[:len(reDot)]
	outL = outL[:len(reDot)]
	if len(imDot) == 0 {
		for i, d := range reDot {
			re := 0.0
			if reN2[i] > 0 {
				re = d / reN2[i]
			}
			outL[i] = complex(re, 0)
		}
		return
	}
	imDot, imN2 = imDot[:len(reDot)], imN2[:len(reDot)]
	for i, d := range reDot {
		re, im := 0.0, 0.0
		if reN2[i] > 0 {
			re = d / reN2[i]
		}
		if imN2[i] > 0 {
			im = imDot[i] / imN2[i]
		}
		outL[i] = complex(re, im)
	}
}

// decodeRunPure folds one run into the filter sums, two receive
// antennas per pass: the AVX2 kernel over blocks [0, v), v a multiple
// of four, then decodePureLanes over the rest. Empty imaginary sums
// skip that part.
func decodeRunPure(y, h *mathx.BatchCF64, run pureRun, nt, mr, v int, reDot, reN2, imDot, imN2 []float64) {
	n := y.N
	iv := min(v, len(imDot))
	yBase := run.t * mr
	for j := 0; j < mr; j += 2 {
		ya, ha := y.Lane(yBase + j)[:n], h.Lane(j*nt + run.a)[:n]
		var yb, hb []complex128
		if j+1 < mr {
			yb, hb = y.Lane(yBase + j + 1)[:n], h.Lane((j+1)*nt + run.a)[:n]
		}
		if v > 0 {
			decodePureAVX2(ya[:v], headOf(yb, v), ha[:v], headOf(hb, v), run.r, run.q, reDot[:v], reN2[:v], imDot[:iv], imN2[:iv])
		}
		decodePureLanes(ya[v:], restOf(yb, v), ha[v:], restOf(hb, v), run.r, run.q, reDot[v:], reN2[v:], imDot[iv:], imN2[iv:])
	}
}

// decodePureLanes folds one or two receive antennas' pure terms into the
// filter sums of len(reDot) blocks: re-part terms r*hre and r*him,
// im-part terms -(q*him) and q*hre, halving the multiply count of the
// general complex product while accumulating in exactly the scalar
// decoder's order. An empty yb means one antenna; empty imaginary sums
// skip that part.
func decodePureLanes(ya, yb, ha, hb []complex128, r, q float64, reDot, reN2, imDot, imN2 []float64) {
	n := len(reDot)
	ya, ha, reN2 = ya[:n], ha[:n], reN2[:n]
	both := len(imDot) > 0
	if both {
		imDot, imN2 = imDot[:n], imN2[:n]
	}
	if len(yb) == 0 {
		for i, hv := range ha {
			yv := ya[i]
			yre, yim := real(yv), imag(yv)
			re0, im0 := r*real(hv), r*imag(hv)
			reDot[i] += re0 * yre
			reDot[i] += im0 * yim
			reN2[i] += re0 * re0
			reN2[i] += im0 * im0
			if both {
				re1, im1 := -(q * imag(hv)), q*real(hv)
				imDot[i] += re1 * yre
				imDot[i] += im1 * yim
				imN2[i] += re1 * re1
				imN2[i] += im1 * im1
			}
		}
		return
	}
	yb, hb = yb[:n], hb[:n]
	for i := range ya {
		yva, yvb := ya[i], yb[i]
		hva, hvb := ha[i], hb[i]
		re0a, im0a := r*real(hva), r*imag(hva)
		re0b, im0b := r*real(hvb), r*imag(hvb)
		rd := reDot[i]
		rd += re0a * real(yva)
		rd += im0a * imag(yva)
		rd += re0b * real(yvb)
		rd += im0b * imag(yvb)
		reDot[i] = rd
		rn := reN2[i]
		rn += re0a * re0a
		rn += im0a * im0a
		rn += re0b * re0b
		rn += im0b * im0b
		reN2[i] = rn
		if both {
			re1a, im1a := -(q * imag(hva)), q*real(hva)
			re1b, im1b := -(q * imag(hvb)), q*real(hvb)
			id := imDot[i]
			id += re1a * real(yva)
			id += im1a * imag(yva)
			id += re1b * real(yvb)
			id += im1b * imag(yvb)
			imDot[i] = id
			in := imN2[i]
			in += re1a * re1a
			in += im1a * im1a
			in += re1b * re1b
			in += im1b * im1b
			imN2[i] = in
		}
	}
}

// headOf and restOf split an optional lane at v, keeping an absent
// (nil or empty) lane absent.
func headOf(l []complex128, v int) []complex128 { return l[:min(v, len(l))] }

func restOf(l []complex128, v int) []complex128 { return l[min(v, len(l)):] }
