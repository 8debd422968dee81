// Command cogbench runs the repository benchmark.
//
//	go run ./cmd/cogbench -workload {paper|tail-ber|serve|fanout|all} -seed N \
//	    [-seconds S] [-json out.json] [-trace trace.json]
//	go run ./cmd/cogbench -compare base1.json[,base2.json...] new1.json[,new2.json...]
//
// It reads BENCHMARK.json from the working directory or its parent
// (-benchmark names another path); -seconds defaults to the run_seconds
// declared there. It prints a machine stamp, then every metric as
// "workload metric value unit", then the digests, and as its last line
// a JSON summary of the metrics BENCHMARK.json declares. It exits 1
// when any op failed or any correctness check did not pass. -trace
// makes the run a traced one: per-layer metrics, a per-layer self-time
// table and a Chrome trace written to the named file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"

	"repro/bench"
)

func main() {
	var (
		workload = flag.String("workload", "all", "paper, tail-ber, serve, fanout or all")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		secs     = flag.Float64("seconds", 0, "length of each workload's timed phase (default: run_seconds of BENCHMARK.json)")
		jsonOut  = flag.String("json", "", "write the full results to this file")
		traceOut = flag.String("trace", "", "traced run: write the Chrome trace to this file")
		compare  = flag.Bool("compare", false, "compare two sets of -json files: -compare BASE[,BASE...] NEW[,NEW...]")
		specPath = flag.String("benchmark", "", "path of BENCHMARK.json (default: in the working directory or its parent)")
	)
	flag.Parse()
	// The benchmark is defined on two cores; a wider host must not change
	// what it measures.
	runtime.GOMAXPROCS(2)

	spec, err := bench.LoadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two comma-separated lists of -json files"))
		}
		os.Exit(runCompare(spec, flag.Arg(0), flag.Arg(1)))
	}
	if *secs <= 0 {
		*secs = float64(spec.RunSeconds)
	}

	workloads := bench.Workloads
	if *workload != "all" {
		workloads = []string{*workload}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Println(bench.NewStamp(*seed).Header())
	var results []*bench.Result
	for _, w := range workloads {
		cfg := bench.Default(*seed, *secs)
		cfg.Trace = *traceOut != ""
		r, err := bench.Run(ctx, cfg, w)
		if err != nil {
			fatal(err)
		}
		printResult(r)
		results = append(results, r)
	}

	if *jsonOut != "" {
		b, err := json.MarshalIndent(bench.Report{Results: results}, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, results); err != nil {
			fatal(err)
		}
	}
	if err := spec.WriteSummary(os.Stdout, results, *traceOut != ""); err != nil {
		fatal(err)
	}
	for _, r := range results {
		if !r.Correct() {
			os.Exit(1)
		}
	}
}

func printResult(r *bench.Result) {
	for _, m := range r.Metrics {
		line := fmt.Sprintf("%s %s %.6g %s", r.Workload, m.Name, m.Value, m.Unit)
		if m.Note != "" {
			line += "  # " + m.Note
		}
		fmt.Println(line)
	}
	fmt.Printf("%s digest %s input %s\n", r.Workload, r.Digest, r.InputDigest)
	fmt.Printf("%s ops attempted %d failed %d\n", r.Workload, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Printf("%s FAIL %s\n", r.Workload, f)
	}
	for _, l := range r.Layers {
		fmt.Printf("%s self %-12s %9.3f s %6.1f%% of op wall (%d spans)\n",
			r.Workload, l.Layer, l.SelfS, 100*l.Share, l.Spans)
	}
}

func writeTrace(path string, results []*bench.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WriteChromeTrace(f, results); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runCompare(spec *bench.Spec, base, cand string) int {
	load := func(list string) []*bench.Result {
		var out []*bench.Result
		for _, p := range strings.Split(list, ",") {
			rep, err := bench.LoadReport(p)
			if err != nil {
				fatal(err)
			}
			out = append(out, rep.Results...)
		}
		return out
	}
	b, n := load(base), load(cand)
	if len(b) > 0 && len(n) > 0 && (b[0].Stamp.CPU != n[0].Stamp.CPU || b[0].Stamp.NumCPU != n[0].Stamp.NumCPU) {
		fmt.Printf("warning: base ran on %q x%d, new on %q x%d; differences may be the machine's\n",
			b[0].Stamp.CPU, b[0].Stamp.NumCPU, n[0].Stamp.CPU, n[0].Stamp.NumCPU)
	}
	code := 0
	fmt.Printf("%-9s %-13s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "base", "new", "change", "spread", "bound", "verdict")
	for _, v := range spec.Compare(b, n) {
		fmt.Printf("%-9s %-13s %12.6g %12.6g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
			v.Workload, v.Metric.Name, v.Base, v.New, 100*v.Worse, 100*v.Spread, 100*v.Metric.Bound, v.Verdict)
		if v.Verdict == "worse" {
			code = 1
		}
	}
	return code
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cogbench:", err)
	os.Exit(2)
}
