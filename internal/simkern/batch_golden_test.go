// Golden cross-checks for the coop kernel registrations: the same
// chunk-seeded plan must produce bit-identical statistics whether the
// trials run through coop.ber.batch or coop.ber (the same SoA chunk
// kernel) on the serial pool, the parallel pool or a 3-worker loopback
// cluster. The reference is a 1-worker coop.ber run, which
// TestCoopKernelMatchesSequentialRuns pins to sequential coop.RunWith
// calls.
// This package is external so it can drive internal/cluster, which
// itself imports simkern for the registrations.
package simkern_test

import (
	"context"
	"fmt"
	"testing"

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
// (4 workers) runs of both registrations agree bit for bit with the
// 1-worker coop.ber reference.
func TestBatchKernelGoldenSerialAndParallel(t *testing.T) {
	const trials = 2*sim.ChunkSize + 177 // uneven tail chunk
	for pi, params := range simkern.GoldenParams() {
		ref := runKernel(t, 1, "coop.ber", params, trials)
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("params=%d/workers=%d", pi, workers), func(t *testing.T) {
				batch := runKernel(t, workers, "coop.ber.batch", params, trials)
				def := runKernel(t, workers, "coop.ber", params, trials)
				if batch != ref {
					t.Fatalf("coop.ber.batch %+v differs from the 1-worker reference %+v", batch, ref)
				}
				if def != ref {
					t.Fatalf("coop.ber %+v differs from the 1-worker reference %+v", def, ref)
				}
			})
		}
	}
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
