// Package ebtable computes and stores ēb(p, b, mt, mr) — the per-bit
// receive energy at which an mt-by-mr orthogonal-STBC link over iid flat
// Rayleigh fading, using constellation size b, achieves average BER p.
//
// The quantity is defined implicitly by the paper's equations (5) and
// (6): p = E_H[BER_AWGN(b, gamma_b)] with
// gamma_b = ||H||_F^2 * ēb / (N0 * mt). Two solvers are provided:
//
//   - Analytic: since ||H||_F^2 is Gamma(mt*mr, 1) distributed, the
//     average has the same closed form as L-branch maximal-ratio
//     combining, so ēb reduces to a one-dimensional root find on an
//     exact expression.
//   - MonteCarlo: the paper's "numerical analysis" — draw channel
//     matrices once, average eq. (5)/(6) over them, and invert with
//     Brent's method on log BER over log ēb. It generalises to
//     non-Rayleigh fading and is the ablation baseline for the analytic
//     path.
//
// Preprocessing (Algorithm 1/2) builds a Table over a (p, b, mt, mr)
// grid with either solver; the table serialises with encoding/gob for
// loading "in each SU node".
package ebtable

import (
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/modulation"
)

// DefaultN0 is the long-haul noise spectral density of Section 2.3
// (-171 dBm/Hz) in W/Hz.
const DefaultN0 = 7.943282347242789e-21

// ebCeiling and ebFloor bracket every physically sensible ēb in joules;
// both solvers search this range on a log scale.
const (
	ebFloor   = 1e-26
	ebCeiling = 1e-8
)

// Convention selects the gamma_b normalisation used when solving ēb.
// The paper prints gamma_b = ||H||_F^2 ēb/(N0 mt) (ConvPaper), but its
// Figure 6 evaluation is only consistent with the mt division omitted
// (ConvArray): the reported D3/D2 ratio is exactly sqrt(m). Both are
// supported; ConvPaper is the default everywhere except the Figure 6
// reproduction. See DESIGN.md.
type Convention int

// Conventions.
const (
	// ConvPaper divides the SNR by mt, as eq. (5)/(6) print.
	ConvPaper Convention = iota
	// ConvArray omits the division, matching the paper's evaluated
	// Figure 6 distance ratios.
	ConvArray
)

// AnalyticBER returns the exact Rayleigh-average BER of eq. (5)/(6) for
// per-bit receive energy eb on an mt-by-mr link with noise density n0
// under the given convention: pre * MRC(mt*mr, k/2 * eb/(n0*mtNorm))
// where k = 3b/(M-1) (k = 2, pre = 1 for b = 1) and mtNorm is mt under
// ConvPaper, 1 under ConvArray.
func AnalyticBER(b, mt, mr int, eb, n0 float64, conv Convention) float64 {
	if eb <= 0 {
		return saturationBER(b)
	}
	l := mt * mr
	pre, k := berShape(b)
	norm := float64(mt)
	if conv == ConvArray {
		norm = 1
	}
	return pre * modulation.BERRayleighMRC(l, k/2*eb/(n0*norm))
}

// berShape returns the prefactor and Q-argument coefficient of the
// paper's BER expressions: p = pre * Q(sqrt(k * gamma_b)).
func berShape(b int) (pre, k float64) {
	if b <= 1 {
		return 1, 2
	}
	m := math.Pow(2, float64(b))
	pre = 4 / float64(b) * (1 - math.Pow(2, -float64(b)/2))
	k = 3 * float64(b) / (m - 1)
	return pre, k
}

// saturationBER is the zero-energy limit of eq. (5)/(6): pre * 1/2.
// BER targets at or above it are unreachable for that constellation.
func saturationBER(b int) float64 {
	pre, _ := berShape(b)
	return pre / 2
}

// Analytic solves ēb from the closed-form average. The zero value uses
// the paper's N0 and the printed gamma_b convention.
type Analytic struct {
	// N0 is the noise spectral density in W/Hz; 0 means DefaultN0.
	N0 float64
	// Convention selects the gamma_b normalisation (default ConvPaper).
	Convention Convention
}

// EbBar returns ēb(p, b, mt, mr). It errors when the target BER is
// unreachable for the constellation (p >= saturation) or the arguments
// are out of domain.
func (a Analytic) EbBar(p float64, b, mt, mr int) (float64, error) {
	n0 := a.N0
	if n0 == 0 {
		n0 = DefaultN0
	}
	if err := checkArgs(p, b, mt, mr); err != nil {
		return 0, err
	}
	if p >= saturationBER(b) {
		return 0, fmt.Errorf("ebtable: BER target %g unreachable with b=%d (saturates at %g)",
			p, b, saturationBER(b))
	}
	f := func(eb float64) float64 { return AnalyticBER(b, mt, mr, eb, n0, a.Convention) - p }
	eb, err := mathx.BisectLog(f, ebFloor, ebCeiling, 1e-9)
	if err != nil {
		return 0, fmt.Errorf("ebtable: solving ēb(p=%g, b=%d, %dx%d): %w", p, b, mt, mr, err)
	}
	return eb, nil
}

func checkArgs(p float64, b, mt, mr int) error {
	switch {
	case p <= 0 || p >= 1:
		return fmt.Errorf("ebtable: BER target %g outside (0, 1)", p)
	case b < 1 || b > 16:
		return fmt.Errorf("ebtable: constellation size %d outside [1, 16]", b)
	case mt < 1 || mr < 1 || mt > 8 || mr > 8:
		return fmt.Errorf("ebtable: antenna counts %dx%d outside [1, 8]", mt, mr)
	}
	return nil
}
