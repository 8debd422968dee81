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

// AWGN adds circularly-symmetric complex Gaussian noise of the given
// per-sample variance (total power across both components) to each
// element of y in place.
func AWGN(rng *rand.Rand, y []complex128, variance float64) {
	s := math.Sqrt(variance / 2)
	for i := range y {
		y[i] += complex(rng.NormFloat64()*s, rng.NormFloat64()*s)
	}
}
