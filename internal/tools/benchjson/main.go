// Command benchjson turns `go test -bench` text output into a stable
// JSON artifact and compares two such artifacts for regressions.
//
// Record mode (default) reads benchmark output on stdin and writes a
// BENCH_<date>.json (or -o path) sorted by benchmark name:
//
//	go test -run=NONE -bench=. -benchtime=100x . | go run ./internal/tools/benchjson -o BENCH_2026-08-05.json
//
// A run that failed (a `--- FAIL:`, `FAIL` or `panic:` line on stdin)
// writes no artifact and exits 2. In the pipe above the exit status is
// benchjson's, so this is what fails `make bench` on a broken benchmark.
//
// Compare mode checks a new artifact against a baseline and exits
// non-zero when any shared benchmark's ns/op regressed by more than
// -threshold (fraction, default 0.20):
//
//	go run ./internal/tools/benchjson -compare BENCH_old.json BENCH_new.json
//
// Each artifact carries a machine stamp (Go version, goos, goarch, cpu
// and GOMAXPROCS); compare warns when the two artifacts' cpu or
// GOMAXPROCS differ, since their ns/op then measure different hosts,
// and when their Go versions differ, since the compiler and runtime
// then changed under the code.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark line. Metrics carries every "value unit"
// pair from the line: ns/op and the -benchmem B/op + allocs/op
// columns, plus custom b.ReportMetric units such as MB/s or relerr.
type Result struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"`
}

// File is the artifact schema. GOOS, GOARCH and CPU come from the
// `go test -bench` header lines, GOMAXPROCS from the -N suffix of the
// benchmark names (go test omits it at GOMAXPROCS 1): together they say
// which machine produced the numbers. GoVersion is runtime.Version() of
// the toolchain running benchjson; `make bench` runs it with `go run`
// next to the `go test` that measured, so it names that toolchain too.
type File struct {
	Date       string   `json:"date"`
	GoVersion  string   `json:"go_version,omitempty"`
	GOOS       string   `json:"goos,omitempty"`
	GOARCH     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	var (
		out       = flag.String("o", "", "output path (default BENCH_<date>.json)")
		compare   = flag.Bool("compare", false, "compare two artifacts: benchjson -compare OLD.json NEW.json")
		threshold = flag.Float64("threshold", 0.20, "max allowed ns/op regression as a fraction (compare mode)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -compare OLD.json NEW.json")
			os.Exit(2)
		}
		worse, err := compareFiles(flag.Arg(0), flag.Arg(1), *threshold, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	if err := record(os.Stdin, *out, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
}

// record parses benchmark output from r and writes the artifact to
// path (BENCH_<date>.json when empty). A failed run or one without
// benchmark lines writes nothing.
func record(r io.Reader, path string, w io.Writer) error {
	f, err := parseBench(r)
	if err != nil {
		return err
	}
	if len(f.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines on stdin")
	}
	if path == "" {
		path = "BENCH_" + f.Date + ".json"
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "benchjson: wrote %d benchmarks to %s\n", len(f.Benchmarks), path)
	return nil
}

// parseBench reads `go test -bench` output and collects benchmark
// lines. Lines look like:
//
//	BenchmarkCoopScheme/2x2-8  100  1318036 ns/op  0 B/op  0 allocs/op
//
// The trailing -N on the name is the GOMAXPROCS suffix: it is stripped
// so artifacts from differently sized machines line up, and the first
// benchmark line's value is recorded in the machine stamp.
//
// Any failure line (see failed) makes the whole run an error: a partial
// artifact would show the failed benchmarks to compare only as
// "missing", which does not fail the gate.
func parseBench(r io.Reader) (*File, error) {
	f := &File{Date: time.Now().Format("2006-01-02"), GoVersion: runtime.Version()}
	header := map[string]*string{
		"goos:": &f.GOOS, "goarch:": &f.GOARCH, "cpu:": &f.CPU,
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if failed(line) {
			return nil, fmt.Errorf("benchmark run failed: %s", strings.TrimSpace(line))
		}
		if res, ok := parseLine(line); ok {
			if len(f.Benchmarks) == 0 {
				_, f.GOMAXPROCS = splitProcs(strings.Fields(line)[0])
			}
			f.Benchmarks = append(f.Benchmarks, res)
			continue
		}
		for prefix, dst := range header {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				*dst = strings.TrimSpace(v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	f.Benchmarks = minMerge(f.Benchmarks)
	sort.Slice(f.Benchmarks, func(i, j int) bool {
		return f.Benchmarks[i].Name < f.Benchmarks[j].Name
	})
	return f, nil
}

// failed reports whether line is go test's mark of a failed run: a
// (possibly nested) `--- FAIL:` result, the package's `FAIL` summary or
// a panic.
func failed(line string) bool {
	return strings.HasPrefix(strings.TrimSpace(line), "--- FAIL:") ||
		strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "panic:")
}

// minMerge collapses repeated benchmark names (a `go test -count=N`
// run) to the repetition with the lowest ns/op. The minimum is the
// standard denoiser for gating: scheduling hiccups only ever inflate a
// measurement, so the fastest repetition is the closest to the code's
// true cost. Deterministic metrics (allocs/op, B/op) are identical
// across repetitions, so taking the fastest run's whole metric set
// loses nothing.
func minMerge(in []Result) []Result {
	best := make(map[string]int, len(in))
	out := in[:0]
	for _, r := range in {
		if i, ok := best[r.Name]; ok {
			if r.Metrics["ns/op"] < out[i].Metrics["ns/op"] {
				out[i] = r
			}
			continue
		}
		best[r.Name] = len(out)
		out = append(out, r)
	}
	return out
}

// parseLine parses one benchmark result line; ok is false for any
// other output (headers, PASS, ok lines, test logs).
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	name, _ := splitProcs(fields[0])
	res := Result{Name: name, Iters: iters, Metrics: map[string]float64{}}
	// Remaining fields come in "value unit" pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		res.Metrics[fields[i+1]] = v
	}
	if _, ok := res.Metrics["ns/op"]; !ok {
		return Result{}, false
	}
	return res, true
}

// splitProcs separates the trailing -N GOMAXPROCS suffix from a
// benchmark name, leaving sub-benchmark paths intact. A name without
// the suffix ran at GOMAXPROCS 1.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 1
	}
	return name[:i], procs
}

// minMeasuredNs is the total measured time (iterations x ns/op) below
// which a benchmark's ns/op is too noisy to gate on: 5 ms keeps every
// substantial hot-path benchmark under the rule while exempting the
// micro-benchmarks whose whole run fits inside one scheduling hiccup.
const minMeasuredNs = 5e6

// compareFiles reports benchmarks shared by both artifacts whose
// ns/op grew by more than threshold, writing a table to w. Benchmarks
// missing from the baseline are reported as "new" and benchmarks that
// vanished from the new run as "missing"; neither fails the compare —
// only a genuine regression on a shared benchmark returns true.
//
// Allocations are gated alongside time: a benchmark the baseline
// records at 0 allocs/op fails on ANY new allocation (the hot-path
// contract is exact, not proportional), and any other shared benchmark
// fails when allocs/op grew by more than the same threshold.
//
// The ns/op rule only applies when both runs measured for at least
// minMeasuredNs in total (iters x ns/op): below that, scheduler jitter
// swamps the signal and a nanosecond-scale benchmark would flake the
// gate on every run. Such lines are tagged "short" instead of failing.
// The allocation rules have no floor — allocs/op is an exact count,
// noise-free at any duration.
func compareFiles(oldPath, newPath string, threshold float64, w io.Writer) (bool, error) {
	oldF, err := readFile(oldPath)
	if err != nil {
		return false, err
	}
	newF, err := readFile(newPath)
	if err != nil {
		return false, err
	}
	if oldF.CPU != newF.CPU || oldF.GOMAXPROCS != newF.GOMAXPROCS {
		fmt.Fprintf(w, "benchjson: warning: machines differ (baseline cpu %q GOMAXPROCS %d, new cpu %q GOMAXPROCS %d); ns/op deltas mix host and code changes\n",
			oldF.CPU, oldF.GOMAXPROCS, newF.CPU, newF.GOMAXPROCS)
	}
	if oldF.GoVersion != newF.GoVersion {
		fmt.Fprintf(w, "benchjson: warning: Go versions differ (baseline %q, new %q); ns/op deltas mix toolchain and code changes\n",
			oldF.GoVersion, newF.GoVersion)
	}
	oldBy := make(map[string]Result, len(oldF.Benchmarks))
	for _, b := range oldF.Benchmarks {
		oldBy[b.Name] = b
	}
	worse := false
	seen := make(map[string]bool, len(newF.Benchmarks))
	for _, nb := range newF.Benchmarks {
		seen[nb.Name] = true
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Fprintf(w, "new       %-50s %12.0f ns/op\n", nb.Name, nb.Metrics["ns/op"])
			continue
		}
		oldNs, newNs := ob.Metrics["ns/op"], nb.Metrics["ns/op"]
		if oldNs <= 0 {
			continue
		}
		delta := (newNs - oldNs) / oldNs
		measured := float64(ob.Iters)*oldNs >= minMeasuredNs &&
			float64(nb.Iters)*newNs >= minMeasuredNs
		tag := "ok"
		if delta > threshold {
			if measured {
				tag = "REGRESS"
				worse = true
			} else {
				tag = "short"
			}
		}
		oldAl, haveOldAl := ob.Metrics["allocs/op"]
		newAl, haveNewAl := nb.Metrics["allocs/op"]
		haveAl := haveOldAl && haveNewAl
		if haveAl && ((oldAl < 1 && newAl >= 1) ||
			(oldAl >= 1 && (newAl-oldAl)/oldAl > threshold)) {
			tag = "ALLOCS"
			worse = true
		}
		fmt.Fprintf(w, "%-9s %-50s %12.0f -> %12.0f ns/op (%+.1f%%)",
			tag, nb.Name, oldNs, newNs, 100*delta)
		if haveAl {
			fmt.Fprintf(w, "  %6.0f -> %6.0f allocs/op", oldAl, newAl)
		}
		fmt.Fprintln(w)
	}
	for _, ob := range oldF.Benchmarks {
		if !seen[ob.Name] {
			fmt.Fprintf(w, "missing   %-50s (in baseline, not in new run)\n", ob.Name)
		}
	}
	if worse {
		fmt.Fprintf(w, "benchjson: regression detected (ns/op above %.0f%%, new allocs on a 0-alloc benchmark, or allocs/op above %.0f%%)\n",
			100*threshold, 100*threshold)
	}
	return worse, nil
}

func readFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
