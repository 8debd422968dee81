package ebtable

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/channel"
	"repro/internal/mathx"
	"repro/internal/modulation"
)

// MonteCarlo estimates ēb by averaging eq. (5)/(6) over sampled channel
// matrices and inverting by bisection — the paper's preprocessing
// procedure. Common random numbers (one ||H||_F^2 sample set reused for
// every bisection probe) make the estimated BER curve strictly monotone
// in ēb, so the bisection is well-posed despite the sampling noise.
type MonteCarlo struct {
	// N0 is the noise spectral density in W/Hz; 0 means DefaultN0.
	N0 float64
	// Samples is the number of channel draws; 0 means 20000.
	Samples int
	// Seed drives the channel sampling.
	Seed int64
	// Workers caps the parallel BER reduction; 0 means GOMAXPROCS.
	Workers int
	// RicianK, when positive, samples Rician instead of Rayleigh fading —
	// a what-if the closed form cannot cover.
	RicianK float64
	// Convention selects the gamma_b normalisation (default ConvPaper).
	Convention Convention

	mu    sync.Mutex
	cache map[[2]int][]float64 // (mt, mr) -> ||H||_F^2 samples
}

// norms returns (computing once) the channel-power samples for an
// mt-by-mr link.
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
	rng := mathx.NewRand(mc.Seed ^ int64(mt)<<32 ^ int64(mr)<<40)
	s := make([]float64, n)
	// Every draw lands in one reused matrix; the Into variants consume
	// exactly the rng stream of a fresh allocation per draw.
	var h *mathx.CMat
	for i := range s {
		if mc.RicianK > 0 {
			h = channel.RicianMatrixInto(rng, mt, mr, mc.RicianK, h)
		} else {
			h = channel.RayleighInto(rng, mt, mr, h)
		}
		s[i] = h.FrobeniusNorm2()
	}
	mc.cache[key] = s
	return s
}

// BER estimates the average BER at per-bit receive energy eb.
func (mc *MonteCarlo) BER(b, mt, mr int, eb float64) float64 {
	n0 := mc.N0
	if n0 == 0 {
		n0 = DefaultN0
	}
	samples := mc.norms(mt, mr)
	norm := float64(mt)
	if mc.Convention == ConvArray {
		norm = 1
	}
	scale := eb / (n0 * norm)
	return parallelMeanBER(samples, b, scale, mc.Workers)
}

// EbBar inverts the Monte-Carlo BER estimate for the target p.
func (mc *MonteCarlo) EbBar(p float64, b, mt, mr int) (float64, error) {
	if err := checkArgs(p, b, mt, mr); err != nil {
		return 0, err
	}
	if p >= saturationBER(b) {
		return 0, fmt.Errorf("ebtable: BER target %g unreachable with b=%d (saturates at %g)",
			p, b, saturationBER(b))
	}
	f := func(eb float64) float64 { return mc.BER(b, mt, mr, eb) - p }
	eb, err := mathx.BisectLog(f, ebFloor, ebCeiling, 1e-6)
	if err != nil {
		return 0, fmt.Errorf("ebtable: MC solve ēb(p=%g, b=%d, %dx%d): %w", p, b, mt, mr, err)
	}
	return eb, nil
}

// berBlock is the sample count of one partial sum in parallelMeanBER.
// The block partition depends on the sample count alone, never on the
// worker count, which is what makes BER bit-identical at any Workers.
// Blocks are small enough that even a 1000-sample set splits evenly
// over two workers; the default 20000 samples make 79 blocks.
const berBlock = 256

// parallelMeanBER averages BER_AWGN(b, h2*scale) over the sample set.
// Workers take fixed-size sample blocks in a fixed stride and the
// per-block sums fold in block order, so the result is independent of
// both the worker count and scheduling.
func parallelMeanBER(samples []float64, b int, scale float64, workers int) float64 {
	blocks := (len(samples) + berBlock - 1) / berBlock
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > blocks {
		workers = blocks
	}
	sums := make([]float64, blocks)
	sumBlocks := func(first int) {
		for k := first; k < blocks; k += workers {
			var s float64
			for _, h2 := range samples[k*berBlock : min((k+1)*berBlock, len(samples))] {
				s += modulation.BERAWGN(b, h2*scale)
			}
			sums[k] = s
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sumBlocks(w)
		}(w)
	}
	sumBlocks(0)
	wg.Wait()
	var total float64
	for _, s := range sums {
		total += s
	}
	return total / float64(len(samples))
}
