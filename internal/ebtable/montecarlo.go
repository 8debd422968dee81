package ebtable

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/mathx"
	"repro/internal/modulation"
)

// MonteCarlo estimates ēb by averaging eq. (5)/(6) over sampled channel
// matrices and inverting for ēb — the paper's preprocessing procedure.
// Common random numbers (one ||H||_F^2 sample set reused for every probe)
// make the estimated BER a smooth, strictly monotone function of ēb, so
// EbBar root-finds log BER over log ēb with Brent's method. One solve
// runs on the calling goroutine; Build parallelises across cells.
type MonteCarlo struct {
	// N0 is the noise spectral density in W/Hz; 0 means DefaultN0.
	N0 float64
	// Samples is the number of channel draws; 0 means 20000.
	Samples int
	// Seed drives the channel sampling.
	Seed int64
	// Convention selects the gamma_b normalisation (default ConvPaper).
	Convention Convention

	evals atomic.Int64 // BER estimates made, one pass over a sample set each
	mu    sync.Mutex
	cache map[[2]int][]float64 // (mt, mr) -> ||H||_F^2 samples
}

// norms returns (computing once) the channel-power samples for an
// mt-by-mr Rayleigh link.
func (mc *MonteCarlo) norms(mt, mr int) []float64 {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.cache == nil {
		mc.cache = make(map[[2]int][]float64)
	}
	key := [2]int{mt, mr}
	if s, ok := mc.cache[key]; ok {
		return s
	}
	n := mc.Samples
	if n <= 0 {
		n = 20000
	}
	// Seed is salted per antenna pair so pairs are independent.
	seed := mc.Seed ^ int64(mt)<<32 ^ int64(mr)<<40
	s := make([]float64, n)
	rayleighNorms(s, seed, mt*mr)
	mc.cache[key] = s
	return s
}

// rayleighNorms fills s with ||H||_F^2 of successive Rayleigh channels
// of taps entries each, drawn on seed's stream: per sample, the value
// FrobeniusNorm2 gives on a channel.RayleighInto draw. The normals come
// one fill per block of samples.
func rayleighNorms(s []float64, seed int64, taps int) {
	rng := mathx.NewReusableRand()
	rng.Reseed(seed)
	const block = 256
	tape := make([]float64, 2*taps*min(block, len(s)))
	const c = 1 / math.Sqrt2 // RandCN's per-component scale
	for lo := 0; lo < len(s); lo += block {
		out := s[lo:min(lo+block, len(s))]
		t := tape[:2*taps*len(out)]
		rng.NormFloat64s(t)
		for i := range out {
			sum := 0.0
			for j := 2 * taps * i; j < 2*taps*(i+1); j += 2 {
				re, im := t[j]*c, t[j+1]*c
				sum += re*re + im*im
			}
			out[i] = sum
		}
	}
}

// berBlock is the sample count of one partial sum in BER. The partial
// sums fold in block order: that order defines the estimate's bits, and
// short partial sums keep its rounding error small.
const berBlock = 256

// BER estimates the average BER at per-bit receive energy eb: the mean
// of BER_AWGN(b, ||H||_F^2 * eb / (N0 * norm)) over the sample set,
// where norm is mt under ConvPaper and 1 under ConvArray.
//
// Each term is BER_AWGN's pre * Q(sqrt(k*gamma)) with Q(x) =
// 0.5 * Erfc(x/sqrt 2), the operations of modulation.BERAWGN in its
// order, but on mathx.Erfc, whose bits do not depend on the host's FMA
// support: a block's arguments are formed first, then one
// mathx.ErfcInto call (four lanes per instruction on AVX2 hosts) turns
// them into erfc values, which fold in sample order.
func (mc *MonteCarlo) BER(b, mt, mr int, eb float64) float64 {
	mc.evals.Add(1)
	n0 := mc.N0
	if n0 == 0 {
		n0 = DefaultN0
	}
	samples := mc.norms(mt, mr)
	norm := float64(mt)
	if mc.Convention == ConvArray {
		norm = 1
	}
	// A negative energy clamps to zero SNR, as modulation.BERAWGN does.
	scale := max(eb, 0) / (n0 * norm)
	pre, k := modulation.BERShape(b)
	var total float64
	var buf [berBlock]float64
	for lo := 0; lo < len(samples); lo += berBlock {
		e := buf[:min(berBlock, len(samples)-lo)]
		for i, h2 := range samples[lo : lo+len(e)] {
			e[i] = math.Sqrt(k*(h2*scale)) / math.Sqrt2
		}
		mathx.ErfcInto(e, e)
		var s float64
		for _, v := range e {
			s += float64(pre * (0.5 * v))
		}
		total += s
	}
	return total / float64(len(samples))
}

// Evals returns the number of BER estimates made so far, counting the
// probes of every EbBar solve.
func (mc *MonteCarlo) Evals() int64 { return mc.evals.Load() }

// EbBar inverts the Monte-Carlo BER estimate for the target p. It solves
// log BER(e^u) = log p over u = log ēb on [ebFloor, ebCeiling] to a
// relative 1e-6 in ēb. The BER is clamped to the smallest positive
// float64 first, since at high energy every sample's Q underflows to 0.
func (mc *MonteCarlo) EbBar(p float64, b, mt, mr int) (float64, error) {
	if err := checkArgs(p, b, mt, mr); err != nil {
		return 0, err
	}
	if p >= saturationBER(b) {
		return 0, fmt.Errorf("ebtable: BER target %g unreachable with b=%d (saturates at %g)",
			p, b, saturationBER(b))
	}
	logP := math.Log(p)
	f := func(u float64) float64 {
		return math.Log(max(mc.BER(b, mt, mr, mathx.Exp(u)), math.SmallestNonzeroFloat64)) - logP
	}
	u, err := mathx.Brent(f, math.Log(ebFloor), math.Log(ebCeiling), math.Log1p(1e-6))
	if err != nil {
		return 0, fmt.Errorf("ebtable: MC solve ēb(p=%g, b=%d, %dx%d): %w", p, b, mt, mr, err)
	}
	return mathx.Exp(u), nil
}
