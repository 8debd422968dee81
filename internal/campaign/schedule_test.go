package campaign

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestRunSchedulesAgreeAcrossExecutors: the fixed, adaptive (nil stop)
// and full-trace-replay schedules of one run are the same chunk plan
// folded in the same order, so each gives the local fixed run's
// statistics bit for bit — on the local pool, through a 3-worker
// loopback coordinator and through the checkpointing executor — and
// each ends with done == total == the realized trials.
func TestRunSchedulesAgreeAcrossExecutors(t *testing.T) {
	const (
		kernel = "coop.ber"
		trials = 5*sim.ChunkSize + 77 // short tail chunk
	)
	params := map[string]float64{"mt": 2, "mr": 2, "snr_db": 6, "bits": 16}
	mc := sim.MonteCarlo{Seed: 13, Workers: 2}
	want, err := mc.RunKernelCtx(context.Background(), kernel, params, trials)
	if err != nil {
		t.Fatal(err)
	}
	full, err := mc.RunAdaptiveCtx(context.Background(), kernel, params, trials, nil)
	if err != nil {
		t.Fatal(err)
	}

	executors := []struct {
		name string
		new  func(t *testing.T) sim.Executor
	}{
		{"local", func(*testing.T) sim.Executor { return nil }},
		{"cluster", func(*testing.T) sim.Executor {
			lb := cluster.NewLoopback("a", "b", "c")
			return cluster.NewCoordinator(lb, cluster.NewRegistry(lb, "a", "b", "c"), cluster.Config{})
		}},
		{"checkpoint", func(t *testing.T) sim.Executor {
			ex, _ := newTestExecutor(t, 2)
			return ex
		}},
	}
	schedules := []struct {
		name string
		run  func(ctx context.Context) (mathx.Running, int, error)
	}{
		{"fixed", func(ctx context.Context) (mathx.Running, int, error) {
			st, err := mc.RunKernelCtx(ctx, kernel, params, trials)
			return st, trials, err
		}},
		{"adaptive", func(ctx context.Context) (mathx.Running, int, error) {
			res, err := mc.RunAdaptiveCtx(ctx, kernel, params, trials, nil)
			return res.Stats, res.Trace.Trials, err
		}},
		{"replay", func(ctx context.Context) (mathx.Running, int, error) {
			res, err := mc.RunTraceCtx(ctx, kernel, params, full.Trace)
			return res.Stats, res.Trace.Trials, err
		}},
	}
	for _, ex := range executors {
		for _, sched := range schedules {
			t.Run(sched.name+"/"+ex.name, func(t *testing.T) {
				tracker := obs.NewTracker()
				ctx := obs.WithProgress(context.Background(), tracker)
				if e := ex.new(t); e != nil {
					ctx = sim.WithExecutor(ctx, e)
				}
				got, realized, err := sched.run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if got.Snapshot() != want.Snapshot() {
					t.Fatalf("stats %+v, want %+v", got.Snapshot(), want.Snapshot())
				}
				s := tracker.Snapshot()
				if realized != trials || s.Done != int64(realized) || s.Total != int64(realized) {
					t.Fatalf("progress %d/%d, realized %d, want %d/%d", s.Done, s.Total, realized, trials, trials)
				}
			})
		}
	}
}
