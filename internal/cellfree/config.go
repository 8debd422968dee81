package cellfree

import (
	"fmt"
	"math"

	"repro/internal/channel"
)

// Combiner selects the uplink receive combining scheme.
type Combiner int

const (
	// CombinerMR is maximum-ratio combining over the UE's DCC cluster:
	// fully distributed, no matrix inversion anywhere.
	CombinerMR Combiner = iota
	// CombinerMMSE is centralized MMSE combining over the full array:
	// one L*N-dimensional Hermitian solve per realization, shared by
	// all K users through a batched Cholesky solve.
	CombinerMMSE
)

// Config describes one cell-free scenario. Equal Configs reproduce
// bit-identical results.
type Config struct {
	// L is the number of access points.
	L int
	// N is the number of antennas per AP.
	N int
	// K is the number of user equipments.
	K int
	// TauP is the number of mutually orthogonal pilots per coherence
	// block; K > TauP forces pilot reuse and hence contamination.
	TauP int
	// TauC is the coherence block length in samples; the SE prelog is
	// 1 - TauP/TauC.
	TauC int
	// SquareLength is the side of the wrapped-around deployment square
	// in metres.
	SquareLength float64
	// PowerMW is the uplink transmit power per UE in milliwatts.
	PowerMW float64
	// NoiseMW is the receiver noise power in milliwatts (20 MHz at a
	// 9 dB noise figure gives about 6.3e-10).
	NoiseMW float64
	// SigmaShadowDB is the log-normal shadowing standard deviation in
	// dB, applied beyond the outer path-loss breakpoint; 0 disables
	// shadowing.
	SigmaShadowDB float64
	// PathLoss is the three-slope large-scale model.
	PathLoss channel.ThreeSlopePathLoss
	// Realizations is the number of small-scale channel realizations
	// the per-user SE averages over within one setup.
	Realizations int
	// Combiner selects MR or MMSE combining.
	Combiner Combiner
	// Seed drives every random draw of the trial.
	Seed int64
}

// Quick returns the test-scale preset: 25 single-antenna APs serving 8
// UEs with 4 pilots on a 500 m square. Small enough for golden tests
// and smoke gates, large enough that pilot contamination and DCC are
// both exercised (8 UEs on 4 pilots).
func Quick() Config {
	return Config{
		L: 25, N: 1, K: 8,
		TauP: 4, TauC: 200,
		SquareLength:  500,
		PowerMW:       100,
		NoiseMW:       6.3e-10,
		SigmaShadowDB: 8,
		PathLoss:      channel.ThreeSlopePathLoss{LRefDB: 140.7, D0: 10, D1: 50},
		Realizations:  1,
		Seed:          1,
	}
}

// Bounds on a configuration. The sizes cap what one trial allocates
// and computes: the MMSE Gram matrix is (L*N)^2 and the channel arrays
// L*N*K, so L*N <= 1024 and K <= 1024 keep each under 16 MiB while
// admitting the paper scale (L = 400, N = 1 or L = 100, N = 4, with
// K = 100 and 1000 realizations). The physical ranges keep every
// large-scale gain finite and the MMSE Gram matrix numerically
// positive definite, with wide margin: NaN SE and a failed Cholesky
// factorization both first appear far outside them.
const (
	maxAntennas     = 1024 // L*N
	maxUEs          = 1024
	maxPilots       = 1024
	maxRealizations = 4096
	maxSquareM      = 1e6
	maxShadowDB     = 20
	minSNRDB        = -100 // rho = PowerMW/NoiseMW in dB
	maxSNRDB        = 200
)

// Validate checks the configuration; every error is a configuration
// mistake a kernel build must surface before trials start.
func (c Config) Validate() error {
	switch {
	case c.L < 1 || c.L > maxAntennas:
		return fmt.Errorf("cellfree: L = %d outside [1, %d]", c.L, maxAntennas)
	case c.N < 1 || c.N > 64:
		return fmt.Errorf("cellfree: N = %d outside [1, 64]", c.N)
	case c.L*c.N > maxAntennas:
		return fmt.Errorf("cellfree: L*N = %d antennas above %d", c.L*c.N, maxAntennas)
	case c.K < 1 || c.K > maxUEs:
		return fmt.Errorf("cellfree: K = %d outside [1, %d]", c.K, maxUEs)
	case c.TauP < 1 || c.TauP > maxPilots:
		return fmt.Errorf("cellfree: TauP = %d outside [1, %d]", c.TauP, maxPilots)
	case c.TauC <= c.TauP:
		return fmt.Errorf("cellfree: TauC = %d must exceed TauP = %d", c.TauC, c.TauP)
	case !(c.SquareLength > 0 && c.SquareLength <= maxSquareM):
		return fmt.Errorf("cellfree: SquareLength = %g outside (0, %g] m", c.SquareLength, float64(maxSquareM))
	case !(c.PowerMW > 0):
		return fmt.Errorf("cellfree: PowerMW = %g, need > 0", c.PowerMW)
	case !(c.NoiseMW > 0):
		return fmt.Errorf("cellfree: NoiseMW = %g, need > 0", c.NoiseMW)
	case !(c.snrDB() >= minSNRDB && c.snrDB() <= maxSNRDB): // also rejects infinite powers
		return fmt.Errorf("cellfree: SNR PowerMW/NoiseMW = %g dB outside [%d, %d]", c.snrDB(), minSNRDB, maxSNRDB)
	case !(c.SigmaShadowDB >= 0 && c.SigmaShadowDB <= maxShadowDB):
		return fmt.Errorf("cellfree: SigmaShadowDB = %g outside [0, %d]", c.SigmaShadowDB, maxShadowDB)
	case !(c.PathLoss.D0 > 0) || c.PathLoss.D1 < c.PathLoss.D0 || math.IsInf(c.PathLoss.D1, 0):
		return fmt.Errorf("cellfree: path-loss breakpoints D0 = %g, D1 = %g need 0 < D0 <= D1 < Inf",
			c.PathLoss.D0, c.PathLoss.D1)
	case c.Realizations < 1 || c.Realizations > maxRealizations:
		return fmt.Errorf("cellfree: Realizations = %d outside [1, %d]", c.Realizations, maxRealizations)
	case c.Combiner != CombinerMR && c.Combiner != CombinerMMSE:
		return fmt.Errorf("cellfree: unknown combiner %d", int(c.Combiner))
	}
	return nil
}

// snrDB returns rho = PowerMW/NoiseMW in dB.
func (c Config) snrDB() float64 { return 10 * math.Log10(c.snr()) }

// snr returns the per-antenna transmit SNR rho = p/sigma2 that the
// noise-normalized channel units are scaled by.
func (c Config) snr() float64 { return c.PowerMW / c.NoiseMW }

// prelog returns the pilot-overhead factor 1 - TauP/TauC.
func (c Config) prelog() float64 {
	return 1 - float64(c.TauP)/float64(c.TauC)
}
