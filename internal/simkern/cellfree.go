package simkern

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/cellfree"
	"repro/internal/sim"
)

func init() {
	// Spectral-efficiency estimates are general means, so adaptive
	// budgets stop them with the CLT rule (no Bernoulli-units cap).
	sim.RegisterKernel("cellfree.se", sim.Kernel{Build: cellfreeSE(cellfree.CombinerMR)})
	sim.RegisterKernel("cellfree.se.mmse", sim.Kernel{Build: cellfreeSE(cellfree.CombinerMMSE)})
}

// cellfreeSE builds the cell-free uplink SE kernels. One trial draws a
// full network snapshot (internal/cellfree), runs the named combiner
// and reports the q-th quantile of the per-user SE distribution, so a
// campaign over these kernels estimates one point of the CDF of SE.
// Parameters:
//
//	l            access points (default 25)
//	n            antennas per AP (default 1)
//	k            user equipments (default 8)
//	tau_p        orthogonal pilots (default 4)
//	tau_c        coherence block length (default 200)
//	square       deployment square side in metres (default 500)
//	snr_db       per-UE transmit SNR rho in dB (absent = Quick preset's
//	             100 mW over 6.3e-10 mW)
//	shadow_db    shadowing standard deviation in dB (default 8)
//	realizations channel realizations per snapshot (default 1)
//	q            SE quantile to report, in [0, 1] (default 0.5)
//
// cellfree.Config.Validate bounds them: at most 1024 antennas (l*n),
// 1024 UEs and pilots, 4096 realizations, a 1e6 m square, 20 dB of
// shadowing and an SNR within [-100, 200] dB. Inside those bounds every
// gain stays finite and the MMSE solve stays well-posed.
//
// Both combiner registrations score the snapshot a trial's seed draws,
// and the seed comes from the chunk stream, not from combiner-specific
// code. So runs of cellfree.se and cellfree.se.mmse with the same plan
// score the same snapshots — which is what makes the MMSE >= MR
// comparison in ext-cellfree exact rather than statistical.
func cellfreeSE(comb cellfree.Combiner) sim.KernelFunc {
	return func(params map[string]float64) (sim.TrialFunc, error) {
		cfg, q, err := cellfreeConfig(params)
		if err != nil {
			return nil, err
		}
		cfg.Combiner = comb
		return func(seeds []int64, vals []float64) {
			ws := cellfreePool.Get().(*cellfreeWorkspace)
			defer cellfreePool.Put(ws)
			c := cfg
			for i, s := range seeds {
				c.Seed = s
				r, err := cellfree.RunWith(ws.run, c)
				if err != nil {
					// Validated at build time; unreachable for a
					// registered run.
					panic(err)
				}
				vals[i], ws.quantile = r.Quantile(q, ws.quantile)
			}
		}, nil
	}
}

// cellfreeWorkspace pairs a cellfree workspace with the scratch
// Result.Quantile sorts in, so a warm block of trials allocates
// nothing.
type cellfreeWorkspace struct {
	run      *cellfree.Workspace
	quantile []float64
}

var cellfreePool = sync.Pool{New: func() any {
	return &cellfreeWorkspace{run: cellfree.NewWorkspace()}
}}

// cellfreeConfig builds and validates the cellfree.Config a kernel's
// flat parameters describe, plus the reported SE quantile. The seed is
// a placeholder — trials reseed from the chunk stream.
func cellfreeConfig(params map[string]float64) (cellfree.Config, float64, error) {
	cfg := cellfree.Quick()
	var err error
	if cfg.L, err = intParam(params, "l", cfg.L); err != nil {
		return cfg, 0, err
	}
	if cfg.N, err = intParam(params, "n", cfg.N); err != nil {
		return cfg, 0, err
	}
	if cfg.K, err = intParam(params, "k", cfg.K); err != nil {
		return cfg, 0, err
	}
	if cfg.TauP, err = intParam(params, "tau_p", cfg.TauP); err != nil {
		return cfg, 0, err
	}
	if cfg.TauC, err = intParam(params, "tau_c", cfg.TauC); err != nil {
		return cfg, 0, err
	}
	if cfg.Realizations, err = intParam(params, "realizations", cfg.Realizations); err != nil {
		return cfg, 0, err
	}
	if v, ok := params["square"]; ok {
		cfg.SquareLength = v
	}
	if v, ok := params["shadow_db"]; ok {
		cfg.SigmaShadowDB = v
	}
	if v, ok := params["snr_db"]; ok {
		// Express rho directly: unit noise, power 10^(snr/10) mW.
		cfg.PowerMW = math.Pow(10, v/10)
		cfg.NoiseMW = 1
	}
	q := 0.5
	if v, ok := params["q"]; ok {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return cfg, 0, fmt.Errorf("simkern: quantile q = %v outside [0, 1]", v)
		}
		q = v
	}
	cfg.Seed = 1 // placeholder for validation; trials reseed per draw
	if err := cfg.Validate(); err != nil {
		return cfg, 0, err
	}
	return cfg, q, nil
}
