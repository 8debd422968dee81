package coop

import (
	"fmt"
	"math"

	"repro/internal/channel"
	"repro/internal/mathx"
	"repro/internal/modulation"
	"repro/internal/stbc"
)

// The per-block scalar hop engine: the reference implementation the
// batched engine (batch.go) is pinned against. It walks one STBC block
// at a time with the plain matrix primitives, consumes the same rng
// stream and performs the same floating-point operations per block, so
// its results are bit-identical to RunWith's and TransportInto's.

// scalarScratch is the reference engine's reusable state, the
// counterpart of Workspace: reuse keeps the speedup comparison in
// TestBatchEngineSpeedup between two allocation-free engines.
type scalarScratch struct {
	rng  *mathx.ReusableRand
	mods [17]*modulation.Scheme // index = bits per symbol

	src     []byte
	out     []byte
	decided []byte
	copies  [][]byte
	locSyms []complex128
	syms    []complex128
	est     []complex128
	perAnt  []*mathx.CMat
	h       *mathx.CMat
	x       *mathx.CMat
	hT      *mathx.CMat
	y       *mathx.CMat
}

func newScalarScratch() *scalarScratch {
	return &scalarScratch{rng: mathx.NewReusableRand()}
}

// scheme returns the cached modulation scheme for b bits per symbol.
func (sc *scalarScratch) scheme(b int) (*modulation.Scheme, error) {
	if sc.mods[b] == nil {
		mod, err := modulation.New(b)
		if err != nil {
			return nil, err
		}
		sc.mods[b] = mod
	}
	return sc.mods[b], nil
}

// runScalar is RunWith on the reference engine. It keeps the plain
// two-seed shape (seed, draw the bits, reseed for the hop) that
// RunWith's single seed and fork must reproduce.
func runScalar(sc *scalarScratch, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	code, err := stbc.ForTransmitters(cfg.Mt)
	if err != nil {
		return Result{}, err
	}
	bitsPerBlock := code.BlockSymbols() * cfg.B
	blocks := cfg.Bits / bitsPerBlock
	if blocks == 0 {
		blocks = 1
	}
	sc.rng.Reseed(cfg.Seed)
	rng := sc.rng.Rand
	sc.src = growBytes(sc.src, blocks*bitsPerBlock)
	for i := range sc.src {
		sc.src[i] = byte(rng.Intn(2))
	}
	sc.out = growBytes(sc.out, len(sc.src))
	return transportScalar(sc, cfg, sc.src, sc.out)
}

// transportScalar is TransportInto on the reference engine.
func transportScalar(sc *scalarScratch, cfg Config, src, dst []byte) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	sc.rng.Reseed(cfg.Seed)
	rng := sc.rng.Rand
	mod, err := sc.scheme(cfg.B)
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

	ea := cfg.SNRPerBit * float64(cfg.B) * code.Rate() / float64(cfg.Mt)
	scale := complex(math.Sqrt(ea), 0)

	if cap(sc.copies) < cfg.Mt {
		sc.copies = append(sc.copies[:cap(sc.copies)], make([][]byte, cfg.Mt-cap(sc.copies))...)
	}
	sc.copies = sc.copies[:cfg.Mt]
	for i := range sc.copies {
		sc.copies[i] = growBytes(sc.copies[i], bitsPerBlock)
	}
	if cap(sc.perAnt) < cfg.Mt {
		sc.perAnt = append(sc.perAnt[:cap(sc.perAnt)], make([]*mathx.CMat, cfg.Mt-cap(sc.perAnt))...)
	}
	sc.perAnt = sc.perAnt[:cfg.Mt]
	sc.decided = growBytes(sc.decided, cfg.B)

	var bitErrs, localErrs, localBits int
	for blk := 0; blk < blocks; blk++ {
		blockSrc := src[blk*bitsPerBlock : (blk+1)*bitsPerBlock]

		// Step 1: head x broadcasts; each other member receives its own
		// noisy copy (the head's copy is exact).
		copy(sc.copies[0], blockSrc)
		for m := 1; m < cfg.Mt; m++ {
			sc.broadcastCopy(mod, blockSrc, sc.copies[m], cfg.LocalSNRPerBit)
			for i := range blockSrc {
				localBits++
				if sc.copies[m][i] != blockSrc[i] {
					localErrs++
				}
			}
		}

		// Step 2: each antenna encodes its own copy; disagreement between
		// copies corrupts the space-time structure, exactly as it would
		// over the air. Every block sees a fresh Rayleigh channel.
		sc.h = channel.RayleighInto(rng, cfg.Mt, cfg.Mr, sc.h)
		y := sc.transmitPerAntenna(code, mod, scale, sc.h)
		channel.AWGN(rng, y.Data, 1)

		// Step 3: members hand their samples to head y unchanged, and
		// the head decodes jointly.
		sc.est = code.DecodeInto(y, sc.h, sc.est)
		for k, sym := range sc.est {
			mod.DecideSymbol(sym/scale, sc.decided)
			for j := 0; j < cfg.B; j++ {
				if sc.decided[j] != blockSrc[k*cfg.B+j] {
					bitErrs++
				}
			}
			copy(dst[blk*bitsPerBlock+k*cfg.B:], sc.decided)
		}
	}
	res.BER = float64(bitErrs) / float64(res.Bits)
	if localBits > 0 {
		res.LocalBER = float64(localErrs) / float64(localBits)
	}
	return res, nil
}

// broadcastCopy sends bits over one AWGN local link and writes the
// receiver's hard decisions to dst. localSNR = 0 means ideal.
func (sc *scalarScratch) broadcastCopy(mod *modulation.Scheme, src, dst []byte, localSNR float64) {
	if localSNR == 0 || math.IsInf(localSNR, 1) {
		copy(dst, src)
		return
	}
	syms, err := mod.ModulateInto(src, sc.locSyms)
	if err != nil {
		// Block sizes are whole multiples of b by construction.
		panic(err)
	}
	sc.locSyms = syms
	// Unit-energy symbols; noise variance sets the per-bit SNR:
	// Es/N0 = b * localSNR.
	n0 := 1 / (float64(mod.BitsPerSymbol) * localSNR)
	channel.AWGN(sc.rng.Rand, syms, n0)
	mod.DemodulateInto(syms, dst)
}

// transmitPerAntenna builds the received block when each antenna encodes
// its own (possibly divergent) bit copy. With identical copies this
// reduces exactly to code.Transmit(code.Encode(...)). The returned matrix
// is scratch, valid until the next call.
func (sc *scalarScratch) transmitPerAntenna(code *stbc.Code, mod *modulation.Scheme, scale complex128, h *mathx.CMat) *mathx.CMat {
	mt := code.Nt()
	// Encode each antenna's view of the block.
	for a := 0; a < mt; a++ {
		syms, err := mod.ModulateInto(sc.copies[a], sc.syms)
		if err != nil {
			panic(err)
		}
		sc.syms = syms
		for i := range syms {
			syms[i] *= scale
		}
		sc.perAnt[a] = code.EncodeInto(syms, sc.perAnt[a])
	}
	// Antenna a transmits column a of its own encoding.
	x := mathx.EnsureShape(sc.x, sc.perAnt[0].Rows, mt)
	sc.x = x
	for t := 0; t < x.Rows; t++ {
		for a := 0; a < mt; a++ {
			x.Set(t, a, sc.perAnt[a].At(t, a))
		}
	}
	// y[t][j] = sum_a x[t][a] h[j][a].
	sc.hT = h.TransposeInto(sc.hT)
	sc.y = x.MulInto(sc.hT, sc.y)
	return sc.y
}
