package modulation

import (
	"math"

	"repro/internal/mathx"
)

// BERAWGN evaluates the paper's instantaneous BER expressions (eqs. 5–6)
// for constellation size b at per-bit SNR gammaB:
//
//	b = 1:  p = Q(sqrt(2*gammaB))
//	b >= 2: p = (4/b) * (1 - 2^(-b/2)) * Q(sqrt(3*b/(M-1) * gammaB))
//
// These are the integrands averaged over the channel in the ebtable.
func BERAWGN(b int, gammaB float64) float64 {
	if gammaB < 0 {
		gammaB = 0
	}
	pre, k := BERShape(b)
	return pre * mathx.Q(math.Sqrt(k*gammaB))
}

// BERShape returns the prefactor and Q-argument coefficient of the
// paper's BER expressions, p = pre * Q(sqrt(k * gammaB)): pre = 1 and
// k = 2 for b = 1, pre = (4/b) * (1 - 2^(-b/2)) and k = 3b/(M-1) for
// b >= 2.
func BERShape(b int) (pre, k float64) {
	if b <= 1 {
		return 1, 2
	}
	m := math.Pow(2, float64(b))
	return 4 / float64(b) * (1 - math.Pow(2, -float64(b)/2)), 3 * float64(b) / (m - 1)
}

// BERRayleighBPSK is the closed-form Rayleigh-average BPSK bit error
// rate at mean per-bit SNR gbar: 0.5*(1 - sqrt(gbar/(1+gbar))). It
// cross-checks the Monte-Carlo ebtable estimator in tests.
func BERRayleighBPSK(gbar float64) float64 {
	if gbar <= 0 {
		return 0.5
	}
	return 0.5 * (1 - math.Sqrt(gbar/(1+gbar)))
}

// BERRayleighMRC is the closed-form average BER of BPSK with L-branch
// maximal-ratio combining over iid Rayleigh branches, each at mean
// per-branch SNR gbar (Proakis eq. 14.4-15). It validates the diversity
// order the STBC decoder achieves.
func BERRayleighMRC(l int, gbar float64) float64 {
	if l < 1 {
		l = 1
	}
	mu := math.Sqrt(gbar / (1 + gbar))
	p := (1 - mu) / 2
	q := (1 + mu) / 2
	sum := 0.0
	for k := 0; k < l; k++ {
		sum += binom(l-1+k, k) * math.Pow(q, float64(k))
	}
	return math.Pow(p, float64(l)) * sum
}

func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	r := 1.0
	for i := 1; i <= k; i++ {
		r *= float64(n-k+i) / float64(i)
	}
	return r
}

// GMSKBERAWGN approximates GMSK (BT = 0.25) coherent-detection BER as
// Q(sqrt(2*alpha*gammaB)) with the standard degradation factor
// alpha = 0.68 relative to BPSK. The underlay testbed (Section 6.4)
// transmits with GMSK.
func GMSKBERAWGN(gammaB float64) float64 {
	const alpha = 0.68
	if gammaB < 0 {
		gammaB = 0
	}
	return mathx.Q(math.Sqrt(2 * alpha * gammaB))
}

// RequiredGammaB inverts BERAWGN: the per-bit SNR at which constellation
// b hits target BER p on AWGN. Returns +Inf when p is unreachable
// (p <= 0) and 0 when p is trivially met.
func RequiredGammaB(b int, p float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	if BERAWGN(b, 0) <= p {
		return 0
	}
	// BERAWGN is continuous and strictly decreasing in gammaB.
	lo, hi := 0.0, 1.0
	for BERAWGN(b, hi) > p {
		hi *= 2
		if hi > 1e12 {
			return math.Inf(1)
		}
	}
	x, err := mathx.Bisect(func(g float64) float64 { return BERAWGN(b, g) - p }, lo, hi, 1e-12*hi)
	if err != nil {
		return math.Inf(1)
	}
	return x
}
