package coop

import (
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/stbc"
)

// The batched structure-of-arrays hop engine. The per-block reference
// engine (scalar_test.go) walks one STBC block at a time: every block
// pays a modulate call, per-antenna encodes, a 4x4-at-most matrix
// multiply, a matched-filter decode and per-symbol hard decisions —
// short, pointer-chased loops the compiler cannot do much with. The
// batch engine processes blocks in tiles of batchTile, one SoA lane per
// generator cell / channel tap / receive sample, so the same arithmetic
// runs as long, branch-free passes over contiguous memory.
//
// Bit-identity contract: for every configuration the batch engine
// consumes exactly the rng stream the scalar loop consumes (randomness
// is drawn block-by-block in the scalar order into noise tapes, then
// applied in compute passes) and performs the same floating-point
// operations in the same order per block. TestTransportBatchMatchesScalar
// pins this across codes, constellations and impairment combinations;
// the experiment golden files pin it end to end.

// Tile width bounds and the per-tile footprint budget. The tile must be
// long enough that per-pass overhead amortises to nothing, and small
// enough that one tile's lanes stay cache-resident: tileFor picks the
// widest tile whose complex lanes fit the budget. Tiling is invisible
// to the rng stream — the draw pass runs block by block regardless of
// where tile boundaries fall — so the width is a pure tuning knob.
const (
	batchTileMin    = 64
	batchTileMax    = 512
	batchTileBudget = 96 << 10 // bytes of hot lane data per tile
)

// tileFor returns the tile width for a hop touching the given number of
// complex lanes per block.
func tileFor(lanes int) int {
	tile := batchTileBudget / (lanes * 16)
	if tile < batchTileMin {
		return batchTileMin
	}
	if tile > batchTileMax {
		return batchTileMax
	}
	return tile
}

// batchScratch holds every lane buffer one tile touches. It lives
// inside Workspace so warmed workspaces run the batch engine without
// allocating.
type batchScratch struct {
	h        mathx.BatchCF64 // channel taps, lane j*mt+a
	x        mathx.BatchCF64 // encoded cells, lane t*mt+a
	y        mathx.BatchCF64 // receive samples, lane t*mr+j
	est      mathx.BatchCF64 // decoded symbol estimates, lane k
	awgn     mathx.BatchCF64 // long-haul noise tape, lane t*mr+j
	fwd      mathx.BatchCF64 // forwarding noise tape, lane t*(mr-1)+j-1
	locNoise mathx.BatchCF64 // broadcast noise tape, lane (m-1)*K+k
	locSyms  mathx.BatchCF64 // broadcast symbols, lane k
	noisy    mathx.BatchCF64 // broadcast symbols + noise, lane k
	syms     []mathx.BatchCF64
	symsPtr  []*mathx.BatchCF64
	copies   []byte // per-antenna tile bit copies, antenna-major
	fs       []float64
	tape     []float64 // one tile's normals, drawn in one fill
	dec      stbc.BatchWorkspace
}

// ensureSyms sizes count per-antenna symbol batches of k lanes by n.
func (bs *batchScratch) ensureSyms(count, k, n int) {
	for cap(bs.syms) < count {
		bs.syms = append(bs.syms[:cap(bs.syms)], mathx.BatchCF64{})
	}
	bs.syms = bs.syms[:count]
	for cap(bs.symsPtr) < count {
		bs.symsPtr = append(bs.symsPtr[:cap(bs.symsPtr)], nil)
	}
	bs.symsPtr = bs.symsPtr[:count]
	for i := range bs.syms {
		bs.syms[i].Resize(k, n)
		bs.symsPtr[i] = &bs.syms[i]
	}
}

// transport pushes src through one cooperative hop with the batched
// engine, writing decoded bits into dst. It draws from ws.rng as the
// caller left it — freshly seeded with cfg.Seed by RunWith or
// TransportInto — and never reseeds. It is the one path under
// Run/RunWith/TransportInto; the per-block reference engine in
// scalar_test.go is the oracle it is pinned against.
func transport(ws *Workspace, cfg Config, src, dst []byte) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	rng := ws.rng.Rand
	mod, err := ws.scheme(cfg.B)
	if err != nil {
		return Result{}, err
	}
	code, err := stbc.ForTransmitters(cfg.Mt)
	if err != nil {
		return Result{}, err
	}
	bitsPerBlock := code.BlockSymbols() * cfg.B
	if len(src) == 0 || len(src)%bitsPerBlock != 0 {
		return Result{}, fmt.Errorf("coop: %d source bits not a positive multiple of the %d-bit block",
			len(src), bitsPerBlock)
	}
	if len(dst) != len(src) {
		return Result{}, fmt.Errorf("coop: dst holds %d bits, need %d", len(dst), len(src))
	}
	blocks := len(src) / bitsPerBlock
	res := Result{Scheme: cfg.SchemeName(), Bits: len(src)}

	// Per-antenna per-slot symbol energy so that the post-combining
	// per-bit SNR is ||H||^2 * SNRPerBit / mt, including the code's rate
	// penalty (see the derivation in scheme_test.go).
	ea := cfg.SNRPerBit * float64(cfg.B) * code.Rate() / float64(cfg.Mt)
	scale := complex(math.Sqrt(ea), 0)

	mt, mr := cfg.Mt, cfg.Mr
	kSyms := code.BlockSymbols()
	tUses := code.BlockLen()
	localFinite := mt > 1 && cfg.LocalSNRPerBit != 0 && !math.IsInf(cfg.LocalSNRPerBit, 1)
	fwdOn := mr > 1 && cfg.ForwardSNR > 0

	ws.fading.Reset(rng, mt, mr, cfg.CoherenceBlocks, 0)

	bs := &ws.batch
	var bitErrs, localErrs, localBits int
	sqAWGN := math.Sqrt(1.0 / 2) // channel.AWGN with unit variance
	var sqLocal float64
	if localFinite {
		n0 := 1 / (float64(mod.BitsPerSymbol) * cfg.LocalSNRPerBit)
		sqLocal = math.Sqrt(n0 / 2)
	}

	// Hot complex lanes per block: channel taps, noise tapes, encoded
	// cells, receive samples, symbol lanes and estimates.
	hotLanes := mr*mt + 2*tUses*mr + tUses*mt + 3*kSyms
	if localFinite {
		hotLanes += (mt-1)*kSyms + (mt+1)*kSyms
	}
	if fwdOn {
		hotLanes += tUses * (mr - 1)
	}
	tile := tileFor(hotLanes)

	for b0 := 0; b0 < blocks; b0 += tile {
		n := blocks - b0
		if n > tile {
			n = tile
		}
		srcTile := src[b0*bitsPerBlock : (b0+n)*bitsPerBlock]
		dstTile := dst[b0*bitsPerBlock : (b0+n)*bitsPerBlock]
		tileBits := n * bitsPerBlock

		// Draw pass: consume the rng exactly as the scalar loop does,
		// block by block — broadcast noise, channel redraw, long-haul
		// noise, forwarding noise — into SoA tapes. Fixed-variance
		// tapes are stored pre-scaled (the scalar path also scales at
		// draw time), so the compute passes just add them.
		bs.h.Resize(mr*mt, n)
		bs.awgn.Resize(tUses*mr, n)
		if localFinite {
			bs.locNoise.Resize((mt-1)*kSyms, n)
		}
		if fwdOn {
			bs.fwd.Resize(tUses*(mr-1), n)
		}
		if cfg.CoherenceBlocks <= 0 {
			// Every draw of the tile is a normal from ws.rng, so one
			// fill takes them all and the scatter lays them out in the
			// scalar order with the scalar multiplies.
			perBlock := 2 * (mr*mt + tUses*mr)
			if localFinite {
				perBlock += 2 * (mt - 1) * kSyms
			}
			if fwdOn {
				perBlock += 2 * tUses * (mr - 1)
			}
			if cap(bs.tape) < perBlock*n {
				bs.tape = make([]float64, perBlock*n)
			}
			tape := bs.tape[:perBlock*n]
			ws.rng.NormFloat64s(tape)
			off, vector := 0, mathx.HasAVX2()
			if localFinite {
				off = scatterCN(&bs.locNoise, tape, off, perBlock, sqLocal, vector)
			}
			// channel.RayleighInto's CN(0, 1) taps.
			off = scatterCN(&bs.h, tape, off, perBlock, 1/math.Sqrt2, vector)
			off = scatterCN(&bs.awgn, tape, off, perBlock, sqAWGN, vector)
			if fwdOn {
				scatterCN(&bs.fwd, tape, off, perBlock, 1, vector)
			}
		} else {
			for i := 0; i < n; i++ {
				if localFinite {
					idx := i
					for l := 0; l < (mt-1)*kSyms; l++ {
						bs.locNoise.Data[idx] = complex(rng.NormFloat64()*sqLocal, rng.NormFloat64()*sqLocal)
						idx += n
					}
				}
				ws.fading.NextBatch(&bs.h, i)
				idx := i
				for l := 0; l < tUses*mr; l++ {
					bs.awgn.Data[idx] = complex(rng.NormFloat64()*sqAWGN, rng.NormFloat64()*sqAWGN)
					idx += n
				}
				if fwdOn {
					idx = i
					for l := 0; l < tUses*(mr-1); l++ {
						bs.fwd.Data[idx] = complex(rng.NormFloat64(), rng.NormFloat64())
						idx += n
					}
				}
			}
		}

		// Step 1: intra-cluster broadcast. Each non-head antenna's copy
		// is the hard decision on the head's symbols plus its own noise.
		if localFinite {
			bs.locSyms.Resize(kSyms, n)
			if err := mod.ModulateBatchInto(srcTile, &bs.locSyms, kSyms, n); err != nil {
				panic(err) // tile sizes are whole blocks by construction
			}
			bs.noisy.Resize(kSyms, n)
			if cap(bs.copies) < mt*tileBits {
				bs.copies = make([]byte, mt*tileBits)
			}
			bs.copies = bs.copies[:mt*tileBits]
			for m := 1; m < mt; m++ {
				for k := 0; k < kSyms; k++ {
					sL := bs.locSyms.Lane(k)[:n]
					nzL := bs.locNoise.Lane((m-1)*kSyms + k)[:n]
					dL := bs.noisy.Lane(k)[:n]
					for i := range dL {
						dL[i] = sL[i] + nzL[i]
					}
				}
				cb := bs.copies[m*tileBits : (m+1)*tileBits]
				if err := mod.DemodulateBatchInto(&bs.noisy, kSyms, n, cb); err != nil {
					panic(err)
				}
				localBits += tileBits
				for i, v := range cb {
					if v != srcTile[i] {
						localErrs++
					}
				}
			}
		}

		// Step 2: encode every antenna's copy and cross the long haul.
		if localFinite {
			bs.ensureSyms(mt, kSyms, n)
			for a := 0; a < mt; a++ {
				bits := srcTile
				if a > 0 {
					bits = bs.copies[a*tileBits : (a+1)*tileBits]
				}
				if err := mod.ModulateBatchInto(bits, &bs.syms[a], kSyms, n); err != nil {
					panic(err)
				}
				scaleLanes(&bs.syms[a], kSyms, n, scale)
			}
			code.EncodeBatchPerAntennaInto(bs.symsPtr[:mt], &bs.x)
		} else {
			bs.ensureSyms(1, kSyms, n)
			if err := mod.ModulateBatchInto(srcTile, &bs.syms[0], kSyms, n); err != nil {
				panic(err)
			}
			scaleLanes(&bs.syms[0], kSyms, n, scale)
			code.EncodeBatchInto(&bs.syms[0], &bs.x)
		}
		code.TransmitBatchInto(&bs.x, &bs.h, &bs.awgn, &bs.y, mr)

		// Step 3: sample forwarding adds noise scaled by the block's
		// mean sample power (forwardNoise in the scalar path).
		if fwdOn {
			if cap(bs.fs) < n {
				bs.fs = make([]float64, n)
			}
			fs := bs.fs[:n]
			taps := mr * mt
			for i := range fs {
				frob := 0.0
				for l := 0; l < taps; l++ {
					v := bs.h.At(l, i)
					re, im := real(v), imag(v)
					frob += re*re + im*im
				}
				meanPower := ea * frob / float64(mr)
				variance := meanPower / cfg.ForwardSNR
				fs[i] = math.Sqrt(variance / 2)
			}
			for t := 0; t < tUses; t++ {
				for j := 1; j < mr; j++ {
					yL := bs.y.Lane(t*mr + j)[:n]
					nzL := bs.fwd.Lane(t*(mr-1) + j - 1)[:n]
					for i := range yL {
						nz := nzL[i]
						yL[i] += complex(real(nz)*fs[i], imag(nz)*fs[i])
					}
				}
			}
		}

		// Joint decode and hard decisions at the head of B: estimates are
		// rescaled by the same complex division the scalar path applies,
		// fused into the decision pass. Decisions without a Q rail (BPSK)
		// never read an estimate's imaginary part, so the decoder skips it.
		code.DecodeBatchInto(&bs.dec, &bs.y, &bs.h, mr, &bs.est, mod.HasQuadrature())
		if err := mod.DemodulateBatchDivInto(&bs.est, scale, kSyms, n, dstTile); err != nil {
			panic(err)
		}
		for i, v := range dstTile {
			if v != srcTile[i] {
				bitErrs++
			}
		}
	}
	res.BER = float64(bitErrs) / float64(res.Bits)
	if localBits > 0 {
		res.LocalBER = float64(localErrs) / float64(localBits)
	}
	return res, nil
}

// scatterCN fills every lane of b from the tape, where block i's draws
// start at i*stride and b's start off further in: entry i of lane l is
// the complex draw at tape[i*stride+off+2l], both parts scaled by s.
// It returns the offset of the draws after b's. A scale of 1 leaves
// the draws exact, as the unscaled per-draw path does. With vector set
// (transport passes mathx.HasAVX2), the kernel fills each lane's whole
// two-entry steps and the loop the odd entry at the end.
func scatterCN(b *mathx.BatchCF64, tape []float64, off, stride int, s float64, vector bool) int {
	n := b.N
	v := 0
	if vector {
		v = n &^ 1
	}
	for l := 0; l < b.Lanes; l++ {
		lane := b.Lane(l)[:n]
		t := off + 2*l
		if v > 0 {
			_ = tape[t+(v-1)*stride+1] // the kernel's last read
			scatterAVX2(lane[:v], tape[t:], stride, s)
			t += v * stride
		}
		for i := v; i < n; i++ {
			lane[i] = complex(tape[t]*s, tape[t+1]*s)
			t += stride
		}
	}
	return off + 2*b.Lanes
}

// scaleLanes applies the per-antenna energy scale in place, the same
// per-symbol multiply the scalar path runs after modulating.
func scaleLanes(b *mathx.BatchCF64, lanes, n int, scale complex128) {
	for k := 0; k < lanes; k++ {
		lane := b.Lane(k)[:n]
		for i := range lane {
			lane[i] *= scale
		}
	}
}
