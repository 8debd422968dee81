package experiments

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/adaptive"
	"repro/internal/mathx"
	"repro/internal/sim"

	_ "repro/internal/simkern" // register the named Monte-Carlo kernels
)

func init() {
	registry["ext-coopber"] = ExtCoopBER
}

// ExtCoopBER sweeps the cooperative hop's BER over Eb/N0 through the
// named-kernel Monte-Carlo path (sim.RunKernelCtx). It is the one
// experiment whose trial work is expressed as a transportable kernel,
// which makes it the distribution witness: run locally it uses the
// in-process pool; run under a cluster coordinator (cogmimod -peers,
// cogsim -remote) the same call fans out to worker nodes — and the
// report is byte-identical either way, which the cluster tests pin
// against this experiment's golden file.
func ExtCoopBER(ctx context.Context, opts Options) (*Report, error) {
	trials := 8 * sim.ChunkSize
	bits := 128
	if opts.Quick {
		trials = 3 * sim.ChunkSize
		bits = 16
	}
	snrs := []float64{0, 4, 8, 12}
	pairs := []struct{ mt, mr int }{{1, 1}, {2, 2}}

	rep := &Report{
		ID:     "ext-coopber",
		Title:  "cooperative hop BER via the distributable Monte-Carlo kernel",
		Header: []string{"Eb/N0 dB", "1x1 BER", "1x1 ci95", "2x2 BER", "2x2 ci95"},
		Notes: []string{
			fmt.Sprintf("%d trials x %d bits per cell, kernel coop.ber, chunk size %d", trials, bits, sim.ChunkSize),
			"distribution witness: bit-identical under the cluster shard executor (see internal/cluster)",
			"extension experiment: not a paper artifact (see DESIGN.md)",
		},
	}

	// An enabled budget swaps the fixed trial count for sequential
	// stopping per cell, up to the budget's own max_trials (the key
	// covers it); the zero budget keeps the golden-pinned fixed path
	// byte-identical.
	budget := opts.Budget
	var realized atomic.Int64

	// One derived seed per cell, row-major, so every cell's chunk walk
	// is independent of sweep shape and worker count.
	seeds := mathx.DeriveSeeds(opts.Seed, len(snrs)*len(pairs))
	var err error
	rep.Rows, err = sweepRows(ctx, opts, len(snrs), 5, func(a *RowArena, i int) error {
		a.Float(snrs[i], 'g', -1)
		for p, pair := range pairs {
			mc := sim.MonteCarlo{Seed: seeds[i*len(pairs)+p], Workers: opts.Workers}
			params := map[string]float64{
				"mt":     float64(pair.mt),
				"mr":     float64(pair.mr),
				"snr_db": snrs[i],
				"bits":   float64(bits),
			}
			var st mathx.Running
			if budget.Enabled() {
				res, err := adaptive.Run(ctx, mc, "coop.ber", params, budget)
				if err != nil {
					return err
				}
				st = res.Stats
				realized.Add(int64(res.Trace.Trials))
			} else {
				var err error
				st, err = mc.RunKernelCtx(ctx, "coop.ber", params, trials)
				if err != nil {
					return err
				}
			}
			a.Float(st.Mean(), 'e', 3)
			a.Float(st.CI95(), 'e', 2)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if budget.Enabled() {
		cells := len(snrs) * len(pairs)
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"adaptive budget: target ±%g%% CI, %d trials max per cell; realized %d of %d budgeted trials",
			100*budget.TargetRelCI, budget.MaxTrials, realized.Load(), int64(cells)*int64(budget.MaxTrials)))
	}
	return rep, nil
}
