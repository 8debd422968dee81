package experiments

import (
	"context"
	"fmt"

	"repro/internal/mathx"
	"repro/internal/sim"
)

func init() {
	registry["ext-cellfree"] = ExtCellfree
}

// ExtCellfree reports the CDF of the per-user uplink spectral
// efficiency in a cell-free massive MIMO deployment (internal/cellfree)
// for MR and centralized MMSE combining, through the distributable
// cellfree.se / cellfree.se.mmse kernels. Each row is one quantile of
// one deployment scale; both combiners in a row run from the same
// derived seed, so they score identical network snapshots and the
// MMSE column dominates the MR column exactly, not just in expectation
// — the invariant internal/cluster's
// TestCellfreeDistributedMatchesSerialGolden asserts on every row.
func ExtCellfree(ctx context.Context, opts Options) (*Report, error) {
	type scale struct{ l, n, k, tauP int }
	trials := 256
	scales := []scale{{100, 1, 40, 10}, {100, 4, 40, 10}}
	quantiles := []float64{0.05, 0.25, 0.5, 0.75, 0.95}
	realizations := 4
	square := 1000.0
	if opts.Quick {
		// Quick preset: small network, one realization, enough trials
		// to span several chunks so the cluster golden test exercises
		// real sharding.
		trials = 3 * sim.ChunkSize
		scales = []scale{{25, 1, 8, 4}}
		quantiles = []float64{0.25, 0.5, 0.75}
		realizations = 1
		square = 500
	}

	rep := &Report{
		ID:     "ext-cellfree",
		Title:  "cell-free massive MIMO uplink SE: CDF quantiles, MR vs centralized MMSE",
		Header: []string{"L", "N", "K", "quantile", "MR SE", "MR ci95", "MMSE SE", "MMSE ci95"},
		Notes: []string{
			fmt.Sprintf("%d trials per cell, %d realizations per snapshot, kernels cellfree.se{,.mmse}, chunk size %d", trials, realizations, sim.ChunkSize),
			"SE in bit/s/Hz per UE; MR and MMSE columns share seeds, so MMSE >= MR holds per cell",
			"distribution witness: bit-identical under the cluster shard executor (see internal/cluster)",
			"extension experiment: not a paper artifact (see DESIGN.md)",
		},
	}

	// One derived seed per (scale, quantile) cell, row-major; the MR and
	// MMSE runs of a cell deliberately reuse the cell's seed.
	seeds := mathx.DeriveSeeds(opts.Seed, len(scales)*len(quantiles))
	var err error
	rep.Rows, err = sweepRows(ctx, opts, len(scales)*len(quantiles), 8, func(a *RowArena, i int) error {
		sc, q := scales[i/len(quantiles)], quantiles[i%len(quantiles)]
		a.Int(int64(sc.l))
		a.Int(int64(sc.n))
		a.Int(int64(sc.k))
		a.Float(q, 'g', -1)
		params := map[string]float64{
			"l":            float64(sc.l),
			"n":            float64(sc.n),
			"k":            float64(sc.k),
			"tau_p":        float64(sc.tauP),
			"square":       square,
			"realizations": float64(realizations),
			"q":            q,
		}
		for _, kernel := range []string{"cellfree.se", "cellfree.se.mmse"} {
			mc := sim.MonteCarlo{Seed: seeds[i], Workers: opts.Workers}
			st, err := mc.RunKernelCtx(ctx, kernel, params, trials)
			if err != nil {
				return err
			}
			a.Float(st.Mean(), 'f', 4)
			a.Float(st.CI95(), 'e', 2)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}
