package service

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/adaptive"
	"repro/internal/experiments"
)

// ExperimentRunner is the default Runner: it regenerates the paper
// artifact named by the request through the experiments registry,
// honoring ctx between sweep points. The adaptive budget parameters
// ("target_ci", "max_trials", "min_trials") are decoded into
// experiments.Options.Budget; everything else in Params rides along in
// the cache key only — drivers configure their own solvers today.
// Sweep rows run at GOMAXPROCS: nothing a client sends sets the
// daemon's concurrency.
func ExperimentRunner(ctx context.Context, req Request) (string, error) {
	return RunExperiment(ctx, req, 0)
}

// RunExperiment is ExperimentRunner with sweep-row and Monte-Carlo
// concurrency capped at workers (0 means GOMAXPROCS). Reports are
// bit-identical for every worker count.
func RunExperiment(ctx context.Context, req Request, workers int) (string, error) {
	budget, err := BudgetFromParams(req.Params)
	if err != nil {
		return "", err
	}
	rep, err := experiments.RunCtx(ctx, req.ID,
		experiments.Options{Seed: req.Seed, Quick: req.Quick, Workers: workers, Budget: budget})
	if err != nil {
		return "", err
	}
	return rep.String(), nil
}

// BudgetFromParams decodes the adaptive budget riding in a request's
// params ("target_ci", "max_trials", "min_trials"); it is the one
// decoder of a budget, and BudgetParams the one encoder. Budget params
// participate in the result cache key like any other param, so two
// requests with different targets never share a cached artifact. A
// malformed value or a budget Validate refuses is an error; absent keys,
// and any other budget that does not enable adaptive stopping, decode
// to the zero (disabled) budget.
func BudgetFromParams(params map[string]string) (adaptive.Budget, error) {
	var b adaptive.Budget
	if v, ok := params["target_ci"]; ok {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !(f >= 0) {
			return adaptive.Budget{}, fmt.Errorf("service: bad target_ci %q", v)
		}
		b.TargetRelCI = f
	}
	if v, ok := params["max_trials"]; ok {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return adaptive.Budget{}, fmt.Errorf("service: bad max_trials %q", v)
		}
		b.MaxTrials = n
	}
	if v, ok := params["min_trials"]; ok {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return adaptive.Budget{}, fmt.Errorf("service: bad min_trials %q", v)
		}
		b.MinTrials = n
	}
	if err := b.Validate(); err != nil {
		return adaptive.Budget{}, err
	}
	if !b.Enabled() {
		return adaptive.Budget{}, nil
	}
	return b, nil
}

// BudgetParams encodes a budget as the request params BudgetFromParams
// decodes back to it. A disabled budget encodes to nil, so a request
// without a budget keys exactly like one that never had the concept.
func BudgetParams(b adaptive.Budget) map[string]string {
	if !b.Enabled() {
		return nil
	}
	p := map[string]string{
		"target_ci":  strconv.FormatFloat(b.TargetRelCI, 'g', -1, 64),
		"max_trials": strconv.Itoa(b.MaxTrials),
	}
	if b.MinTrials > 0 {
		p["min_trials"] = strconv.Itoa(b.MinTrials)
	}
	return p
}

// KnownExperimentIDs lists the IDs ExperimentRunner accepts, for
// Config.KnownIDs.
func KnownExperimentIDs() []string { return experiments.IDs() }
