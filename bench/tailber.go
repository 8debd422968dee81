package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/adaptive"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/sim"
)

// tailBER is time to an answer at stated accuracy: one op is one round
// of adaptive runs over the configured cells, each stopping once its
// 95% CI meets the target.
type tailBER struct {
	cfg Config
	tr  *tracer

	mu     sync.Mutex
	first  []sim.AdaptiveResult // op 0, replayed by check
	trials int
	rounds int
	// overhead compares op 0's adaptive runs with fixed runs of their
	// realized trial counts (traced runs only).
	overhead float64
}

func newTailBER(_ context.Context, cfg Config, tr *tracer) (closedWorkload, error) {
	return &tailBER{cfg: cfg, tr: tr}, nil
}

func (t *tailBER) mc(i, cell int) sim.MonteCarlo {
	return sim.MonteCarlo{Seed: deriveSeed(t.cfg.Seed, "tail-ber/"+strconv.Itoa(cell), i), Workers: 2}
}

func (t *tailBER) input(i int) []byte {
	var b []byte
	for c := range t.cfg.TailBER.Cells {
		b = strconv.AppendInt(b, t.mc(i, c).Seed, 10)
		b = append(b, ' ')
	}
	return b
}

// cellOutput is the digest form of one adaptive cell.
type cellOutput struct {
	Kernel string                `json:"kernel"`
	Stats  mathx.RunningSnapshot `json:"stats"`
	Trace  sim.PlanTrace         `json:"trace"`
}

func (t *tailBER) op(ctx context.Context, i int) ([]byte, error) {
	tc := t.cfg.TailBER
	if traced(ctx) {
		ctx = sim.WithExecutor(ctx, &timedExec{tr: t.tr, workers: 2})
	}
	outs := make([]cellOutput, 0, len(tc.Cells))
	results := make([]sim.AdaptiveResult, 0, len(tc.Cells))
	var err error
	for c, cell := range tc.Cells {
		cctx, end := t.tr.child(ctx, "adaptive.cell")
		res, rerr := adaptive.Run(cctx, t.mc(i, c), cell.Kernel, cell.Params, tc.Budget)
		end(obs.Attr{Key: "kernel", Value: cell.Kernel})
		if rerr != nil {
			return nil, fmt.Errorf("%s: %w", cell.Kernel, rerr)
		}
		if verr := res.Trace.Validate(); verr != nil {
			err = fmt.Errorf("%s: invalid plan trace: %w", cell.Kernel, verr)
		} else if !res.Trace.Stopped {
			err = fmt.Errorf("%s: budget of %d trials ran out before the CI target", cell.Kernel, tc.Budget.MaxTrials)
		}
		results = append(results, res)
		outs = append(outs, cellOutput{Kernel: cell.Kernel, Stats: res.Stats.Snapshot(), Trace: res.Trace})
	}
	b, jerr := json.Marshal(outs)
	if jerr != nil {
		return nil, jerr
	}
	if i == 0 {
		t.mu.Lock()
		t.first = results
		t.trials, t.rounds = 0, 0
		for _, r := range results {
			t.trials += r.Trace.Trials
			t.rounds += len(r.Trace.Rounds)
		}
		t.mu.Unlock()
	}
	return b, err
}

// check replays op 0's plan traces: statistics must be bit-identical to
// the adaptive runs that recorded them. On a traced run it also times
// those adaptive runs against fixed runs of their realized trials.
func (t *tailBER) check(ctx context.Context, led *ledger) {
	tc := t.cfg.TailBER
	var adaptiveWall, fixedWall time.Duration
	for c, res := range t.first {
		cell := tc.Cells[c]
		rep, err := adaptive.Replay(ctx, t.mc(0, c), cell.Kernel, cell.Params, res.Trace)
		if err != nil {
			led.fail(0, fmt.Errorf("replay %s: %w", cell.Kernel, err))
			continue
		}
		if rep.Stats.Snapshot() != res.Stats.Snapshot() {
			led.fail(0, fmt.Errorf("replay %s: statistics differ from the adaptive run", cell.Kernel))
		}
		if !t.cfg.Trace {
			continue
		}
		t0 := time.Now()
		_, err1 := adaptive.Run(ctx, t.mc(0, c), cell.Kernel, cell.Params, tc.Budget)
		t1 := time.Now()
		_, err2 := t.mc(0, c).RunKernelCtx(ctx, cell.Kernel, cell.Params, res.Trace.Trials)
		if err1 != nil || err2 != nil {
			led.fail(0, fmt.Errorf("overhead probe %s: %v, %v", cell.Kernel, err1, err2))
			continue
		}
		adaptiveWall += t1.Sub(t0)
		fixedWall += time.Since(t1)
	}
	if fixedWall > 0 {
		t.overhead = adaptiveWall.Seconds()/fixedWall.Seconds() - 1
	}
}

func (t *tailBER) metrics(r *Result, ph *phase) {
	r.add("trials_per_s", float64(ph.trials)/ph.wall.Seconds(), "trials/s")
	if !r.Traced {
		return
	}
	r.add("adaptive.trials_to_target", float64(t.trials), "count")
	r.add("adaptive.rounds", float64(t.rounds), "count")
	r.add("adaptive.overhead_frac", t.overhead, "ratio")
}

func (t *tailBER) close() {}
