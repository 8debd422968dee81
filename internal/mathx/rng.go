package mathx

import (
	"math"
	"math/rand"
)

// NewRand returns a deterministic *rand.Rand for the given seed.
// Every stochastic component in the repository takes an injected source
// so experiments replay bit-for-bit. The stream is exactly
// rand.New(rand.NewSource(seed))'s; the source is the table-seeded
// reimplementation in source.go.
func NewRand(seed int64) *rand.Rand {
	src := new(source64)
	src.Seed(seed)
	return rand.New(src)
}

// ReusableRand couples a *rand.Rand with its source so hot paths can
// re-seed one generator per run instead of allocating a fresh one.
// Reseed(s) yields exactly the stream NewRand(s) would, so pooled
// workspaces preserve bit-identical reproducibility.
type ReusableRand struct {
	Rand *rand.Rand
	src  *source64
}

// NewReusableRand returns a reusable generator on the stream of seed 0;
// call Reseed before use.
func NewReusableRand() *ReusableRand {
	src := new(source64)
	src.Seed(0)
	return &ReusableRand{Rand: rand.New(src), src: src}
}

// Reseed resets the generator to the deterministic stream of seed.
func (r *ReusableRand) Reseed(seed int64) { r.src.Seed(seed) }

// CopyFrom sets r to o's current position in o's stream: afterwards
// both generators yield the same values. It forks a seeded generator
// for the price of one state copy instead of a second Reseed. Only the
// source state is copied: bytes o.Rand.Read has buffered are not.
func (r *ReusableRand) CopyFrom(o *ReusableRand) { *r.src = *o.src }

// SplitMix64 advances a splitmix64 state and returns the next value.
// It is used to derive statistically independent per-worker seeds from a
// single experiment seed without the correlation hazards of seed+i.
func SplitMix64(state *uint64) uint64 {
	*state += splitMixGamma
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// splitMixGamma is splitmix64's state increment.
const splitMixGamma = 0x9e3779b97f4a7c15

// DeriveSeed returns child seed i of master: DeriveSeeds(master, n)[i]
// for any n > i. Each splitmix64 step adds a constant to the state, so
// the i-th state is a closed form and no earlier seed is computed.
func DeriveSeed(master int64, i int) int64 {
	state := uint64(master) + uint64(i)*splitMixGamma
	return int64(SplitMix64(&state))
}

// DeriveSeeds expands one master seed into n child seeds via splitmix64.
func DeriveSeeds(master int64, n int) []int64 {
	state := uint64(master)
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(SplitMix64(&state))
	}
	return out
}

// Rayleigh draws a Rayleigh(sigma) variate: the envelope of a
// circularly-symmetric complex Gaussian with per-component deviation sigma.
func Rayleigh(rng *rand.Rand, sigma float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return sigma * math.Sqrt(-2*math.Log(u))
}

// ComplexCN draws CN(0, variance): total variance split evenly across the
// real and imaginary parts.
func ComplexCN(rng *rand.Rand, variance float64) complex128 {
	s := math.Sqrt(variance / 2)
	return complex(rng.NormFloat64()*s, rng.NormFloat64()*s)
}

// Rician draws the envelope of a Rician channel with K-factor k (linear)
// and total mean-square power omega. K = 0 degenerates to Rayleigh; large
// K approaches a deterministic line-of-sight gain. Indoor testbed channels
// (Section 6.4) use small K to model a partially obstructed path.
func Rician(rng *rand.Rand, k, omega float64) float64 {
	if k < 0 {
		k = 0
	}
	nu := math.Sqrt(k * omega / (k + 1))      // LOS amplitude
	sigma := math.Sqrt(omega / (2 * (k + 1))) // scatter per component
	re := nu + rng.NormFloat64()*sigma
	im := rng.NormFloat64() * sigma
	return math.Hypot(re, im)
}

// ExpVariate draws an exponential variate with the given mean.
func ExpVariate(rng *rand.Rand, mean float64) float64 {
	return rng.ExpFloat64() * mean
}
