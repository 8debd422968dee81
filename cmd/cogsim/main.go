// Command cogsim regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	cogsim -list
//	cogsim -id table2
//	cogsim -all -seed 7
//	cogsim -id fig7 -quick
//	cogsim -id ext-coopber -remote localhost:8346,localhost:8347
//	cogsim -id fig7 -server localhost:8080 -tenant acme
//	cogsim -campaign campaigns/figures.json -data-dir ./data
//	cogsim -id ext-coopber -quick -trace-out run.json
//
// -remote shards kernel-based Monte-Carlo runs across cogmimod worker
// nodes (see internal/cluster); output is bit-identical to a local run.
//
// -trace-out records the invocation as a structural trace (per-chunk
// Monte-Carlo spans, and per-shard dispatch when combined with -remote)
// and writes it as Chrome trace_event JSON — load the file in
// chrome://tracing or https://ui.perfetto.dev to see the timeline.
// Recording never changes results; reports stay bit-identical.
//
// -server submits the experiment to a running cogmimod daemon instead
// of computing locally and follows the job's SSE event stream: the
// usual progress line tracks the server-side run live, and the report
// the daemon rendered is printed on completion. -tenant names the
// submitting tenant (the X-Tenant-Id header), so the job queues and is
// quota-billed under that tenant; unset means the default tenant.
//
// -campaign runs a named list of experiments with per-chunk durable
// checkpoints (see internal/campaign): an interrupted run — Ctrl-C or a
// hard kill — resumes from the checkpoints in -data-dir on the next
// invocation and still prints a report byte-identical to an
// uninterrupted run.
//
// On a terminal, a live progress line on stderr tracks completed work
// (sweep points, testbed runs, Monte-Carlo trials) while the tables
// render to stdout; -progress on/off overrides the terminal detection.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"time"

	"repro/internal/adaptive"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	var (
		id        = flag.String("id", "", "experiment to run (see -list)")
		all       = flag.Bool("all", false, "run every experiment")
		list      = flag.Bool("list", false, "list experiment IDs and exit")
		seed      = flag.Int64("seed", 1, "master random seed")
		quick     = flag.Bool("quick", false, "shrink workloads for a fast smoke run")
		format    = flag.String("format", "text", "output format: text, csv or json")
		plot      = flag.Bool("plot", false, "render numeric reports as an ASCII chart")
		logY      = flag.Bool("logy", false, "log-scale the plot's y axis (use with fig7)")
		workers   = flag.Int("workers", 0, "sweep-row concurrency; 0 means GOMAXPROCS (results are identical for any value)")
		remote    = flag.String("remote", "", "comma-separated cogmimod worker addresses; shard Monte-Carlo kernels across them (results are identical)")
		server    = flag.String("server", "", "cogmimod base URL; submit there and follow the job over SSE instead of computing locally (use with -id)")
		tenantID  = flag.String("tenant", "", "tenant id for -server submissions (X-Tenant-Id); empty means the default tenant")
		campSpec  = flag.String("campaign", "", "campaign spec file; runs it with durable checkpoints (needs -data-dir)")
		dataDir   = flag.String("data-dir", "", "durable store directory for -campaign checkpoints and results")
		targetCI  = flag.Float64("target-ci", 0, "adaptive stop: target relative 95% CI half-width, e.g. 0.05 for ±5% (0 = fixed budgets)")
		maxTrials = flag.Int("max-trials", 0, "adaptive stop: per-cell trial budget cap, at most 16777216 (required with -target-ci)")
		minTrials = flag.Int("min-trials", 0, "adaptive stop: floor on trials before stopping may trigger")
		progress  = flag.String("progress", "auto", "live progress line on stderr: auto, on or off")
		logLevel  = flag.String("log-level", "warn", "log level: debug, info, warn or error")
		traceOut  = flag.String("trace-out", "", "record the run as a trace and write Chrome trace_event JSON here (open in chrome://tracing or https://ui.perfetto.dev)")
	)
	flag.Parse()

	// -target-ci/-max-trials compile to an adaptive budget threaded into
	// every execution path: local runs take it via experiments.Options,
	// server submissions encode it as request params so the budget
	// participates in the result cache key.
	budget := adaptive.Budget{TargetRelCI: *targetCI, MaxTrials: *maxTrials, MinTrials: *minTrials}
	if err := budget.Validate(); err != nil {
		fatal(err)
	}

	var lv slog.Level
	if err := lv.UnmarshalText([]byte(*logLevel)); err != nil {
		fatal(fmt.Errorf("bad -log-level %q: %w", *logLevel, err))
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})))

	// Ctrl-C cancels the run between sweep points instead of killing
	// the process mid-write: completed output stays intact and the exit
	// path reports the interruption.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	// Experiment drivers and sim.MonteCarlo report completed work into
	// the tracker; on a terminal a printer renders it live.
	tracker := obs.NewTracker()
	ctx = obs.WithProgress(ctx, tracker)
	if *remote != "" {
		peers := splitPeers(*remote)
		if len(peers) == 0 {
			fatal(fmt.Errorf("bad -remote %q: no addresses", *remote))
		}
		ctx = withRemote(ctx, peers, *workers)
	}
	// -trace-out records the whole invocation as one structural trace
	// under a cogsim.run root span and exports it as a Chrome trace on
	// success. The recorder only exists when asked for, so the default
	// run keeps the no-tracing fast path.
	var traceRec *obs.TraceRecorder
	var rootSpan *obs.Span
	if *traceOut != "" {
		traceRec = obs.NewTraceRecorder(4, 1<<16)
		ctx = obs.WithRecorder(ctx, traceRec)
		ctx, rootSpan = obs.StartSpan(ctx, "cogsim.run")
		rootSpan.SetAttr("id", *id).SetAttr("seed", fmt.Sprint(*seed))
	}

	showProgress := *progress == "on" || (*progress == "auto" && obs.IsTerminal(os.Stderr))
	watch := func(label string) (stop func()) {
		if !showProgress {
			return func() {}
		}
		return obs.StartProgressPrinter(os.Stderr, label, tracker, 0)
	}

	render := func(rep *experiments.Report) (string, error) {
		if *plot {
			return rep.Plot(64, 18, *logY)
		}
		return rep.Format(*format)
	}

	switch {
	case *list:
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
	case *campSpec != "":
		report, err := runCampaign(ctx, *campSpec, *dataDir, *workers, showProgress)
		if err != nil {
			fatal(err)
		}
		fmt.Print(report)
	case *all:
		stop := watch("all")
		reps, err := experiments.RunAllCtx(ctx, experiments.Options{Seed: *seed, Quick: *quick, Workers: *workers, Budget: budget})
		stop()
		if err != nil {
			fatal(err)
		}
		for i, r := range reps {
			if i > 0 {
				fmt.Println()
			}
			out, err := render(r)
			if err != nil {
				fatal(err)
			}
			fmt.Print(out)
		}
	case *id != "" && *server != "":
		if err := waitServerHealthy(ctx, *server, 5*time.Second); err != nil {
			fatal(err)
		}
		stop := watch(*id)
		report, err := runViaServer(ctx, *server, *tenantID,
			service.Request{ID: *id, Seed: *seed, Quick: *quick, Params: service.BudgetParams(budget)}, tracker)
		stop()
		if err != nil {
			fatal(err)
		}
		fmt.Print(report)
	case *id != "":
		stop := watch(*id)
		rep, err := experiments.RunCtx(ctx, *id, experiments.Options{Seed: *seed, Quick: *quick, Workers: *workers, Budget: budget})
		stop()
		if err != nil {
			fatal(err)
		}
		out, err := render(rep)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
	default:
		fmt.Fprintln(os.Stderr, "cogsim: need -id, -all, -list or -campaign")
		flag.Usage()
		os.Exit(2)
	}

	if traceRec != nil {
		if err := writeTrace(traceRec, rootSpan, *traceOut); err != nil {
			fatal(fmt.Errorf("writing trace: %w", err))
		}
		fmt.Fprintf(os.Stderr, "cogsim: trace written to %s\n", *traceOut)
	}
}

// writeTrace ends the root span and exports the invocation's trace as
// Chrome trace_event JSON.
func writeTrace(rec *obs.TraceRecorder, root *obs.Span, path string) error {
	root.End()
	tr, ok := rec.Trace(root.TraceID())
	if !ok {
		return fmt.Errorf("no spans recorded")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "cogsim: interrupted")
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "cogsim:", err)
	os.Exit(1)
}
