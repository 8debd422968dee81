// Golden cross-checks for the batched kernel registrations: the same
// chunk-seeded plan must produce bit-identical statistics whether the
// trials run through coop.ber.batch or coop.ber (both the SoA chunk
// kernel) or the test-registered coop.ber.scalar (the per-block oracle)
// — on the serial pool, the parallel pool and a 3-worker loopback
// cluster.
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

	_ "repro/internal/simkern"
)

// goldenParams exercises the impairment branches end to end; bits is
// kept small because the plan spans several chunks of trials.
func goldenParams() []map[string]float64 {
	return []map[string]float64{
		{"mt": 2, "mr": 2, "snr_db": 6, "bits": 16},
		{"mt": 4, "mr": 2, "b": 2, "snr_db": 10, "local_db": 8, "bits": 24},
		{"mt": 1, "mr": 1, "snr_db": 4, "bits": 16},
	}
}

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
// (4 workers) runs of all three registrations agree bit for bit.
func TestBatchKernelGoldenSerialAndParallel(t *testing.T) {
	const trials = 2*sim.ChunkSize + 177 // uneven tail chunk
	for pi, params := range goldenParams() {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("params=%d/workers=%d", pi, workers), func(t *testing.T) {
				oracle := runKernel(t, workers, "coop.ber.scalar", params, trials)
				batch := runKernel(t, workers, "coop.ber.batch", params, trials)
				def := runKernel(t, workers, "coop.ber", params, trials)
				if batch != oracle {
					t.Fatalf("coop.ber.batch %+v differs from scalar oracle %+v", batch, oracle)
				}
				if def != oracle {
					t.Fatalf("coop.ber %+v differs from scalar oracle %+v", def, oracle)
				}
			})
		}
	}
}

// TestBatchKernelGoldenCluster shards coop.ber.batch across a 3-worker
// loopback cluster and compares the merged partials against the scalar
// oracle computed locally: distribution must not perturb a single bit.
func TestBatchKernelGoldenCluster(t *testing.T) {
	params := goldenParams()[0]
	run := sim.KernelRun{
		Kernel: "coop.ber.batch",
		Params: params,
		Seed:   3,
		Trials: 5 * sim.ChunkSize,
	}
	oracle := runKernel(t, 2, "coop.ber.scalar", params, run.Trials)

	lb := cluster.NewLoopback("a", "b", "c")
	reg := cluster.NewRegistry(lb, "a", "b", "c")
	co := cluster.NewCoordinator(lb, reg, cluster.Config{Shards: 3})
	mc := sim.MonteCarlo{Seed: run.Seed}
	merged, err := mc.RunKernelCtx(sim.WithExecutor(context.Background(), co), run.Kernel, run.Params, run.Trials)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	if merged != oracle {
		t.Fatalf("3-worker cluster %+v differs from local scalar oracle %+v", merged, oracle)
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
