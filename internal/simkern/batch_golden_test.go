// Golden cross-checks for the coop kernel registration: the same
// chunk-seeded plan must produce bit-identical statistics whether the
// trials run under coop.ber or one of its legacy aliases, on the serial
// pool, the parallel pool or a 3-worker loopback cluster. The reference is a 1-worker coop.ber run, which
// TestCoopKernelMatchesSequentialRuns pins to sequential coop.RunWith
// calls.
// This package is external so it can drive internal/cluster, which
// itself imports simkern for the registrations.
package simkern_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/cluster"
	"repro/internal/mathx"
	"repro/internal/sim"
	"repro/internal/simkern"
)

func runKernel(t *testing.T, workers int, kernel string, params map[string]float64, trials int) mathx.Running {
	t.Helper()
	mc := sim.MonteCarlo{Seed: 3, Workers: workers}
	got, err := mc.RunKernelCtx(context.Background(), kernel, params, trials)
	if err != nil {
		t.Fatalf("%s: %v", kernel, err)
	}
	return got
}

// TestBatchKernelGoldenSerialAndParallel pins the registry-level
// identity on the in-process pools: serial (1 worker) and parallel
// (4 workers) runs under coop.ber and each of its legacy aliases agree
// bit for bit with the 1-worker coop.ber reference — fixed runs in
// their statistics, adaptive runs in statistics and realized plan.
func TestBatchKernelGoldenSerialAndParallel(t *testing.T) {
	const trials = 2*sim.ChunkSize + 177 // uneven tail chunk
	budget := adaptive.Budget{TargetRelCI: 0.2, MaxTrials: trials}
	names := []string{"coop.ber"}
	for alias, physics := range simkern.LegacyAliases() {
		if physics == "coop.ber" {
			names = append(names, alias)
		}
	}
	for pi, params := range simkern.GoldenParams() {
		ref := runKernel(t, 1, "coop.ber", params, trials)
		refAd := runAdaptive(t, 1, "coop.ber", params, budget)
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("params=%d/workers=%d", pi, workers), func(t *testing.T) {
				for _, kernel := range names {
					if got := runKernel(t, workers, kernel, params, trials); got != ref {
						t.Fatalf("%s %+v differs from the 1-worker reference %+v", kernel, got, ref)
					}
					got := runAdaptive(t, workers, kernel, params, budget)
					if got.Stats != refAd.Stats || !reflect.DeepEqual(got.Trace, refAd.Trace) {
						t.Fatalf("adaptive %s %+v %+v differs from the 1-worker reference %+v %+v",
							kernel, got.Stats, got.Trace, refAd.Stats, refAd.Trace)
					}
				}
			})
		}
	}
}

func runAdaptive(t *testing.T, workers int, kernel string, params map[string]float64, b adaptive.Budget) sim.AdaptiveResult {
	t.Helper()
	res, err := adaptive.Run(context.Background(), sim.MonteCarlo{Seed: 3, Workers: workers}, kernel, params, b)
	if err != nil {
		t.Fatalf("adaptive %s: %v", kernel, err)
	}
	return res
}

// TestBatchKernelGoldenCluster shards coop.ber.batch across a 3-worker
// loopback cluster and compares the merged partials against the
// 1-worker coop.ber reference computed locally: distribution must not
// perturb a single bit.
func TestBatchKernelGoldenCluster(t *testing.T) {
	params := simkern.GoldenParams()[0]
	run := sim.KernelRun{
		Kernel: "coop.ber.batch",
		Params: params,
		Seed:   3,
		Trials: 5 * sim.ChunkSize,
	}
	ref := runKernel(t, 1, "coop.ber", params, run.Trials)

	lb := cluster.NewLoopback("a", "b", "c")
	reg := cluster.NewRegistry(lb, "a", "b", "c")
	co := cluster.NewCoordinator(lb, reg, cluster.Config{Shards: 3})
	mc := sim.MonteCarlo{Seed: run.Seed}
	merged, err := mc.RunKernelCtx(sim.WithExecutor(context.Background(), co), run.Kernel, run.Params, run.Trials)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	if merged != ref {
		t.Fatalf("3-worker cluster %+v differs from the local 1-worker reference %+v", merged, ref)
	}
	used := 0
	for _, a := range []string{"a", "b", "c"} {
		if lb.Node(a).Shards() > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("only %d workers computed shards; the golden run must actually distribute", used)
	}
}
