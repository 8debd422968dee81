package cellfree

import (
	"math"
	"math/cmplx"
	"sort"

	"repro/internal/mathx"
)

// Result is one trial's outcome: the per-user uplink spectral
// efficiencies of a single network snapshot.
type Result struct {
	// SE holds bit/s/Hz per UE. It aliases workspace storage and is
	// valid until the workspace's next trial.
	SE []float64
}

// Quantile returns the q-th quantile of the per-user SE distribution,
// interpolated between order statistics. scratch (grown as needed) is
// reused for sorting so hot loops stay allocation-free; pass nil when
// that doesn't matter.
func (r Result) Quantile(q float64, scratch []float64) (float64, []float64) {
	if cap(scratch) < len(r.SE) {
		scratch = make([]float64, len(r.SE))
	}
	scratch = scratch[:len(r.SE)]
	copy(scratch, r.SE)
	sort.Float64s(scratch)
	return mathx.Quantile(scratch, q), scratch
}

// RunWith executes one trial — setup generation, Realizations channel
// draws, combining, SE — on the given workspace. The returned SE slice
// aliases the workspace.
func RunWith(ws *Workspace, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	ws.ensure(&cfg)
	ws.rng.Reseed(cfg.Seed)
	ws.genSetup(&cfg)

	for i := range ws.seSum[:cfg.K] {
		ws.seSum[i] = 0
	}
	for r := 0; r < cfg.Realizations; r++ {
		ws.drawRealization(&cfg)
		ws.estimate(&cfg)
		if cfg.Combiner == CombinerMMSE {
			ws.mmseStep(&cfg)
		} else {
			ws.mrStep(&cfg)
		}
	}

	inv := cfg.prelog() / float64(cfg.Realizations)
	for ki := 0; ki < cfg.K; ki++ {
		ws.se[ki] = ws.seSum[ki] * inv
	}
	return Result{SE: ws.se[:cfg.K]}, nil
}

// drawRealization fills hbar with one small-scale channel draw
// (UE-major, antenna-minor) and np with fresh unit pilot noise
// (pilot-major, antenna-minor). The order is fixed: it is the part of
// the determinism contract both combiners share, which is what lets
// the experiment drivers run MR and MMSE on identical snapshots.
func (ws *Workspace) drawRealization(cfg *Config) {
	ln, k := cfg.L*cfg.N, cfg.K
	const invSqrt2 = 1 / math.Sqrt2
	// One fill per UE row or pilot row: the tape holds that row's
	// normals in draw order, real then imaginary part per antenna.
	tape := ws.tape[:2*ln]
	for ki := 0; ki < k; ki++ {
		ws.rng.NormFloat64s(tape)
		for a := 0; a < ln; a++ {
			s := math.Sqrt(ws.betaBar[(a/cfg.N)*k+ki]) * invSqrt2
			ws.hbar.Data[a*k+ki] = complex(tape[2*a]*s, tape[2*a+1]*s)
		}
	}
	for t := 0; t < cfg.TauP; t++ {
		ws.rng.NormFloat64s(tape)
		for a := 0; a < ln; a++ {
			ws.np.Data[a*cfg.TauP+t] = complex(tape[2*a]*invSqrt2, tape[2*a+1]*invSqrt2)
		}
	}
}

// estimate despreads the pilots and forms the per-AP MMSE channel
// estimates. np is overwritten in place with the despread observation
// y_t = sqrt(TauP) * sum_{i on pilot t} hbar_i + noise; the estimate of
// UE k at antenna a is then a deterministic rescaling of its pilot's
// observation, so co-pilot UEs get parallel (contaminated) estimates.
func (ws *Workspace) estimate(cfg *Config) {
	ln, k, tp := cfg.L*cfg.N, cfg.K, cfg.TauP
	sqrtTP := math.Sqrt(float64(tp))
	for a := 0; a < ln; a++ {
		y := ws.np.Data[a*tp : (a+1)*tp]
		h := ws.hbar.Data[a*k : (a+1)*k]
		for ki := 0; ki < k; ki++ {
			y[ws.pilot[ki]] += complex(sqrtTP, 0) * h[ki]
		}
		li := a / cfg.N
		g := ws.ghat.Data[a*k : (a+1)*k]
		for ki := 0; ki < k; ki++ {
			coef := sqrtTP * ws.betaBar[li*k+ki] / ws.psi[li*tp+ws.pilot[ki]]
			g[ki] = complex(coef, 0) * y[ws.pilot[ki]]
		}
	}
}

// sinrFrom scores one UE's combiner: dots[i] = v^H ghat_i must already
// be filled and zq = v^H Z v computed over the combiner's support. The
// expression is the instantaneous SINR with channel estimates in the
// numerator and estimation-error-plus-noise power in the denominator —
// the quantity the MMSE combiner maximizes.
func (ws *Workspace) sinrFrom(k, ki int, zq float64) float64 {
	num := 0.0
	inter := 0.0
	for i := 0; i < k; i++ {
		p := real(ws.dots[i])*real(ws.dots[i]) + imag(ws.dots[i])*imag(ws.dots[i])
		if i == ki {
			num = p
		} else {
			inter += p
		}
	}
	return num / (inter + zq)
}

// mrStep accumulates one realization of MR combining over each UE's
// DCC cluster: v = ghat_k restricted to the serving APs' antennas.
func (ws *Workspace) mrStep(cfg *Config) {
	k := cfg.K
	for ki := 0; ki < k; ki++ {
		ants := ws.ants[:0]
		for li := 0; li < cfg.L; li++ {
			if ws.serve[li*k+ki] {
				for m := 0; m < cfg.N; m++ {
					ants = append(ants, li*cfg.N+m)
				}
			}
		}
		for i := range ws.dots[:k] {
			ws.dots[i] = 0
		}
		zq := 0.0
		for _, a := range ants {
			row := ws.ghat.Data[a*k : (a+1)*k]
			v := row[ki]
			c := cmplx.Conj(v)
			for i := 0; i < k; i++ {
				ws.dots[i] += c * row[i]
			}
			zq += (real(v)*real(v) + imag(v)*imag(v)) * ws.zAP[a/cfg.N]
		}
		ws.seSum[ki] += math.Log2(1 + ws.sinrFrom(k, ki, zq))
	}
}

// mmseStep accumulates one realization of centralized MMSE combining:
// all K combiners come out of one Cholesky factorization of the
// full-array Gram matrix A = Ghat Ghat^H + diag(z), solved against the
// K estimate columns in one lane-major batch.
func (ws *Workspace) mmseStep(cfg *Config) {
	ln, k := cfg.L*cfg.N, cfg.K
	// Lower triangle of the Gram matrix; Factor never reads above the
	// diagonal. Rows of ghat are contiguous, so each entry is one
	// contiguous K-length dot product.
	for r := 0; r < ln; r++ {
		gr := ws.ghat.Data[r*k : (r+1)*k]
		for c := 0; c <= r; c++ {
			gc := ws.ghat.Data[c*k : (c+1)*k]
			var s complex128
			for i := 0; i < k; i++ {
				s += gr[i] * cmplx.Conj(gc[i])
			}
			if c == r {
				s += complex(ws.zAP[r/cfg.N], 0)
			}
			ws.gram.Data[r*ln+c] = s
		}
	}
	if err := ws.chol.Factor(ws.gram); err != nil {
		// diag(z) >= 1 makes the Gram matrix positive definite; a
		// failure here is a programming error, not a data condition.
		panic(err)
	}
	// ghat's row-major LN x K layout is exactly the lane-major staging
	// of the batch solver: lane a carries antenna a of all K vectors.
	copy(ws.rhs.Data, ws.ghat.Data[:ln*k])
	ws.chol.SolveBatchInto(ws.rhs)

	for ki := 0; ki < k; ki++ {
		for i := range ws.dots[:k] {
			ws.dots[i] = 0
		}
		zq := 0.0
		for a := 0; a < ln; a++ {
			v := ws.rhs.Data[a*k+ki]
			if v == 0 {
				continue
			}
			c := cmplx.Conj(v)
			row := ws.ghat.Data[a*k : (a+1)*k]
			for i := 0; i < k; i++ {
				ws.dots[i] += c * row[i]
			}
			zq += (real(v)*real(v) + imag(v)*imag(v)) * ws.zAP[a/cfg.N]
		}
		ws.seSum[ki] += math.Log2(1 + ws.sinrFrom(k, ki, zq))
	}
}
