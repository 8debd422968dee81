package sim

import (
	"context"

	"repro/internal/mathx"
)

// KernelRun names one complete Monte-Carlo computation in transportable
// form: a registered kernel, its flat parameters, the master seed and
// the trial budget. Everything an executor needs — chunk count, chunk
// seeds, chunk lengths — derives from it via Plan.
type KernelRun struct {
	Kernel string
	Params map[string]float64
	Seed   int64
	Trials int
}

// Plan returns the run's chunk decomposition.
func (r KernelRun) Plan() Plan { return Plan{Seed: r.Seed, Trials: r.Trials} }

// An Executor computes one contiguous chunk range [lo, hi) of a
// KernelRun somewhere — typically sharded across remote worker nodes —
// and returns the per-chunk partials indexed from lo. Every run schedule
// (fixed, adaptive, trace replay) issues its rounds through it and folds
// the partials left to right, exactly as it folds the local pool's, so
// any executor that returns bit-identical per-chunk partials yields a
// bit-identical total. Implementations report completed trials to the
// context's progress sink but never grow the progress total: the run
// schedule accounts the budget. internal/cluster's Coordinator and
// internal/campaign's checkpoint executor implement it.
type Executor interface {
	RunChunkRange(ctx context.Context, run KernelRun, lo, hi int) ([]mathx.Running, error)
}

type executorKey struct{}

// WithExecutor routes the rounds of every RunKernelCtx, RunAdaptiveCtx
// and RunTraceCtx under ctx through e instead of the local worker pool.
func WithExecutor(ctx context.Context, e Executor) context.Context {
	return context.WithValue(ctx, executorKey{}, e)
}

// ExecutorFrom returns the executor attached to ctx, or nil.
func ExecutorFrom(ctx context.Context) Executor {
	e, _ := ctx.Value(executorKey{}).(Executor)
	return e
}
