package cellfree

import (
	"math"

	"repro/internal/mathx"
)

// Workspace holds every buffer one trial needs, so the Monte-Carlo hot
// path allocates nothing per trial. It follows the repository's
// workspace convention (coop.Workspace, multihop.Workspace): the
// caller owns one per worker and hands it to RunWith for every trial.
// A Workspace is not safe for concurrent use.
type Workspace struct {
	rng *mathx.ReusableRand

	// Setup-scale state, sized L, K or L*K (row-major l*K+k).
	apX, apY []float64
	ueX, ueY []float64
	shAP     []float64
	shUE     []float64
	betaBar  []float64 // noise-normalized large-scale SNR rho*beta
	pilot    []int     // pilot index per UE
	master   []int     // master AP per UE
	serve    []bool    // DCC membership, l*K+k
	psi      []float64 // pilot-signal energy per (AP, pilot), l*TauP+t
	gammaBar []float64 // per-antenna estimate variance, l*K+k
	zAP      []float64 // effective noise+error variance per AP antenna

	// Realization-scale state, antenna-major (antenna a = l*N+m).
	hbar *mathx.CMat // true channels, LN x K
	np   *mathx.CMat // pilot noise, then despread pilot signal, LN x TauP
	ghat *mathx.CMat // channel estimates, LN x K
	tape []float64   // one row of channel or pilot-noise normals, 2*LN

	// Combining state.
	gram  *mathx.CMat      // MMSE Gram matrix, LN x LN (lower triangle)
	chol  mathx.Cholesky   // factorization of gram
	rhs   *mathx.BatchCF64 // batched MMSE solves, LN lanes x K vectors
	dots  []complex128     // per-UE combiner outputs v^H ghat_i
	ants  []int            // MR cluster antenna indices
	seSum []float64        // per-UE accumulated log2(1+SINR)
	se    []float64        // per-UE SE of the finished trial
	sortb []float64        // quantile scratch
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace {
	return &Workspace{rng: mathx.NewReusableRand()}
}

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growB(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growC(s []complex128, n int) []complex128 {
	if cap(s) < n {
		return make([]complex128, n)
	}
	return s[:n]
}

// ensure shapes every buffer for cfg, reusing backing storage.
func (ws *Workspace) ensure(cfg *Config) {
	l, k, ln := cfg.L, cfg.K, cfg.L*cfg.N
	ws.apX = growF(ws.apX, l)
	ws.apY = growF(ws.apY, l)
	ws.ueX = growF(ws.ueX, k)
	ws.ueY = growF(ws.ueY, k)
	ws.shAP = growF(ws.shAP, l)
	ws.shUE = growF(ws.shUE, k)
	ws.betaBar = growF(ws.betaBar, l*k)
	ws.pilot = growI(ws.pilot, k)
	ws.master = growI(ws.master, k)
	ws.serve = growB(ws.serve, l*k)
	ws.psi = growF(ws.psi, l*cfg.TauP)
	ws.gammaBar = growF(ws.gammaBar, l*k)
	ws.zAP = growF(ws.zAP, l)
	ws.hbar = mathx.EnsureShape(ws.hbar, ln, k)
	ws.np = mathx.EnsureShape(ws.np, ln, cfg.TauP)
	ws.ghat = mathx.EnsureShape(ws.ghat, ln, k)
	ws.tape = growF(ws.tape, 2*ln)
	if cfg.Combiner == CombinerMMSE {
		ws.gram = mathx.EnsureShape(ws.gram, ln, ln)
		if ws.rhs == nil {
			ws.rhs = mathx.NewBatchCF64(ln, k)
		} else {
			ws.rhs.Resize(ln, k)
		}
	}
	ws.dots = growC(ws.dots, k)
	ws.ants = growI(ws.ants, ln)
	ws.seSum = growF(ws.seSum, k)
	ws.se = growF(ws.se, k)
	ws.sortb = growF(ws.sortb, k)
}

// wrapDist is the torus metric of the wrapped-around square: the
// shortest of the nine periodic displacements, computed per axis.
func wrapDist(x1, y1, x2, y2, side float64) float64 {
	dx := math.Abs(x1 - x2)
	if w := side - dx; w < dx {
		dx = w
	}
	dy := math.Abs(y1 - y2)
	if w := side - dy; w < dy {
		dy = w
	}
	return math.Hypot(dx, dy)
}

// genSetup draws one network snapshot and derives every large-scale
// quantity: gains, pilots, masters, DCC sets and the estimation
// statistics. The draw order is part of the determinism contract (see
// the package comment).
func (ws *Workspace) genSetup(cfg *Config) {
	rng := ws.rng.Rand
	l, k := cfg.L, cfg.K
	side := cfg.SquareLength
	for i := 0; i < l; i++ {
		ws.apX[i] = rng.Float64() * side
		ws.apY[i] = rng.Float64() * side
	}
	for i := 0; i < k; i++ {
		ws.ueX[i] = rng.Float64() * side
		ws.ueY[i] = rng.Float64() * side
	}
	for i := 0; i < l; i++ {
		ws.shAP[i] = rng.NormFloat64()
	}
	for i := 0; i < k; i++ {
		ws.shUE[i] = rng.NormFloat64()
	}

	// Large-scale gains, noise-normalized: betaBar = rho * 10^(g/10).
	// Shadowing uses the two-component correlation model: the offset of
	// link (l, k) is sigma*(a_l + b_k)/sqrt(2), so links sharing an AP
	// or a UE stay correlated while distinct pairs are independent.
	rho := cfg.snr()
	const invSqrt2 = 1 / math.Sqrt2
	for li := 0; li < l; li++ {
		row := ws.betaBar[li*k:]
		for ki := 0; ki < k; ki++ {
			d := wrapDist(ws.apX[li], ws.apY[li], ws.ueX[ki], ws.ueY[ki], side)
			g := cfg.PathLoss.GainDB(d)
			if d > cfg.PathLoss.D1 && cfg.SigmaShadowDB > 0 {
				g += cfg.SigmaShadowDB * (ws.shAP[li] + ws.shUE[ki]) * invSqrt2
			}
			row[ki] = rho * math.Pow(10, g/10)
		}
	}

	// Master AP: the strongest large-scale link.
	for ki := 0; ki < k; ki++ {
		best, bestGain := 0, ws.betaBar[ki]
		for li := 1; li < l; li++ {
			if g := ws.betaBar[li*k+ki]; g > bestGain {
				best, bestGain = li, g
			}
		}
		ws.master[ki] = best
	}

	// Pilot assignment: the first TauP UEs take orthogonal pilots; each
	// later UE picks the pilot with the least accumulated contamination
	// at its master AP (the scalable cell-free rule).
	for ki := 0; ki < k; ki++ {
		if ki < cfg.TauP {
			ws.pilot[ki] = ki
			continue
		}
		row := ws.betaBar[ws.master[ki]*k:]
		bestT, bestLoad := 0, math.Inf(1)
		for t := 0; t < cfg.TauP; t++ {
			load := 0.0
			for i := 0; i < ki; i++ {
				if ws.pilot[i] == t {
					load += row[i]
				}
			}
			if load < bestLoad {
				bestT, bestLoad = t, load
			}
		}
		ws.pilot[ki] = bestT
	}

	// DCC: per (AP, pilot) the AP serves the UE it hears strongest;
	// every UE is also served by its master AP, so no cluster is empty.
	for i := range ws.serve[:l*k] {
		ws.serve[i] = false
	}
	for li := 0; li < l; li++ {
		row := ws.betaBar[li*k:]
		for t := 0; t < cfg.TauP; t++ {
			best, bestGain := -1, 0.0
			for ki := 0; ki < k; ki++ {
				if ws.pilot[ki] == t && (best < 0 || row[ki] > bestGain) {
					best, bestGain = ki, row[ki]
				}
			}
			if best >= 0 {
				ws.serve[li*k+best] = true
			}
		}
	}
	for ki := 0; ki < k; ki++ {
		ws.serve[ws.master[ki]*k+ki] = true
	}

	// Estimation statistics under pilot contamination: psi is the
	// despread pilot-signal energy at one AP antenna, gammaBar the
	// per-antenna variance of the MMSE channel estimate, and zAP the
	// per-antenna effective noise floor (thermal plus the estimation
	// error of every UE) the combiners see.
	tauP := float64(cfg.TauP)
	for li := 0; li < l; li++ {
		row := ws.betaBar[li*k:]
		for t := 0; t < cfg.TauP; t++ {
			s := 1.0
			for ki := 0; ki < k; ki++ {
				if ws.pilot[ki] == t {
					s += tauP * row[ki]
				}
			}
			ws.psi[li*cfg.TauP+t] = s
		}
		z := 1.0
		for ki := 0; ki < k; ki++ {
			gm := tauP * row[ki] * row[ki] / ws.psi[li*cfg.TauP+ws.pilot[ki]]
			ws.gammaBar[li*k+ki] = gm
			z += row[ki] - gm
		}
		ws.zAP[li] = z
	}
}
