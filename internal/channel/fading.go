package channel

import (
	"math"
	"math/rand"

	"repro/internal/mathx"
)

// RayleighInto draws an mt-by-mr flat Rayleigh block-fading channel
// matrix H with iid CN(0, 1) entries — the channel assumed for every
// long-haul cooperative MIMO link (Section 2.3) — into h (reshaped as
// needed; allocated when nil). The matrix stays constant for a codeword
// (block fading) and is redrawn per block.
func RayleighInto(rng *rand.Rand, mt, mr int, h *mathx.CMat) *mathx.CMat {
	return mathx.EnsureShape(h, mr, mt).RandCN(rng)
}

// RicianMatrixInto draws an mt-by-mr Rician channel with K-factor k
// into h (reshaped as needed; allocated when nil): a fixed unit-modulus
// line-of-sight component plus scattered CN entries, each entry
// normalised to unit mean-square gain.
func RicianMatrixInto(rng *rand.Rand, mt, mr int, k float64, h *mathx.CMat) *mathx.CMat {
	if k < 0 {
		k = 0
	}
	h = mathx.EnsureShape(h, mr, mt)
	los := math.Sqrt(k / (k + 1))
	scatter := math.Sqrt(1 / (k + 1))
	for i := range h.Data {
		z := mathx.ComplexCN(rng, 1)
		h.Data[i] = complex(los, 0) + z*complex(scatter, 0)
	}
	return h
}

// AWGN adds circularly-symmetric complex Gaussian noise of the given
// per-sample variance (total power across both components) to each
// element of y in place.
func AWGN(rng *rand.Rand, y []complex128, variance float64) {
	s := math.Sqrt(variance / 2)
	for i := range y {
		y[i] += complex(rng.NormFloat64()*s, rng.NormFloat64()*s)
	}
}

// BlockFading yields successive channel matrices: Next() redraws H every
// blockLen uses, modelling a channel whose coherence time spans one
// space-time codeword.
type BlockFading struct {
	rng      *rand.Rand
	mt, mr   int
	blockLen int
	used     int
	current  *mathx.CMat
	k        float64 // Rician K; 0 = Rayleigh
}

// NewBlockFading constructs a block-fading process. blockLen <= 0 redraws
// on every call.
func NewBlockFading(rng *rand.Rand, mt, mr, blockLen int, k float64) *BlockFading {
	return &BlockFading{rng: rng, mt: mt, mr: mr, blockLen: blockLen, k: k}
}

// Reset reinitialises the process in place for a new run, keeping the
// backing matrix for reuse. The first Next after Reset redraws, exactly
// as a freshly constructed process would.
func (b *BlockFading) Reset(rng *rand.Rand, mt, mr, blockLen int, k float64) {
	b.rng, b.mt, b.mr, b.blockLen, b.k = rng, mt, mr, blockLen, k
	b.used = b.blockLen // force a redraw on the next call
	if b.used < 1 {
		b.used = 1
	}
}

// Next returns the channel matrix for the next use, redrawing at block
// boundaries. Callers must not retain the matrix across calls: the
// backing matrix is reused across redraws so the fading process itself
// is allocation-free after the first block.
func (b *BlockFading) Next() *mathx.CMat {
	if b.current == nil || b.blockLen <= 0 || b.used >= b.blockLen {
		if b.k > 0 {
			b.current = RicianMatrixInto(b.rng, b.mt, b.mr, b.k, b.current)
		} else {
			b.current = RayleighInto(b.rng, b.mt, b.mr, b.current)
		}
		b.used = 0
	}
	b.used++
	return b.current
}
