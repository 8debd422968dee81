package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: some CPU
BenchmarkCoopScheme/2x2-8         	     100	   1318036 ns/op	 569.00 MB/s	       0 B/op	       0 allocs/op
BenchmarkFig7-8                   	     100	    194624 ns/op	      16 allocs/op
BenchmarkClustering/greedy_n=24   	     100	     51234 ns/op	    4096 B/op	      12 allocs/op
--- BENCH: BenchmarkNoise
    bench_test.go:10: noisy log line
BenchmarkRelErr-8                 	      50	    900000 ns/op	         0.00310 relerr
PASS
ok  	repro	1.234s
`

func TestParseBench(t *testing.T) {
	f, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %+v", len(f.Benchmarks), f.Benchmarks)
	}
	// Sorted by name, GOMAXPROCS suffix stripped.
	byName := map[string]Result{}
	for _, b := range f.Benchmarks {
		byName[b.Name] = b
	}
	cs, ok := byName["BenchmarkCoopScheme/2x2"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %+v", f.Benchmarks)
	}
	if cs.Iters != 100 || cs.Metrics["ns/op"] != 1318036 || cs.Metrics["allocs/op"] != 0 || cs.Metrics["MB/s"] != 569 {
		t.Errorf("bad metrics: %+v", cs)
	}
	// Sub-benchmark with n=24 in the name must keep its full path.
	if _, ok := byName["BenchmarkClustering/greedy_n=24"]; !ok {
		t.Errorf("sub-benchmark name mangled: %+v", f.Benchmarks)
	}
	if re := byName["BenchmarkRelErr"]; re.Metrics["relerr"] != 0.0031 {
		t.Errorf("custom metric lost: %+v", re)
	}
}

// TestParseBenchMachineStamp: the goos/goarch/cpu header lines and the
// GOMAXPROCS name suffix land in the artifact.
func TestParseBenchMachineStamp(t *testing.T) {
	f, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if f.GOOS != "linux" || f.GOARCH != "amd64" || f.CPU != "some CPU" || f.GOMAXPROCS != 8 {
		t.Errorf("stamp goos=%q goarch=%q cpu=%q gomaxprocs=%d, want linux amd64 \"some CPU\" 8",
			f.GOOS, f.GOARCH, f.CPU, f.GOMAXPROCS)
	}
	// go test prints no suffix at GOMAXPROCS 1.
	f, err = parseBench(strings.NewReader("cpu: other CPU\nBenchmarkA  100  5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if f.CPU != "other CPU" || f.GOMAXPROCS != 1 {
		t.Errorf("stamp cpu=%q gomaxprocs=%d, want \"other CPU\" 1", f.CPU, f.GOMAXPROCS)
	}
}

// TestCompareWarnsAcrossMachines: a cpu or GOMAXPROCS mismatch prints a
// warning but never fails the compare on its own; matching stamps stay
// quiet.
func TestCompareWarnsAcrossMachines(t *testing.T) {
	dir := t.TempDir()
	oldP := filepath.Join(dir, "old.json")
	newP := filepath.Join(dir, "new.json")
	write := func(path, stamp string) {
		t.Helper()
		body := `{"date":"2026-01-01",` + stamp + `"benchmarks":[{"name":"BenchmarkA","iters":100,"metrics":{"ns/op":1000}}]}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(oldP, `"cpu":"host A","gomaxprocs":2,`)
	for _, tc := range []struct {
		stamp string
		warn  bool
	}{
		{`"cpu":"host A","gomaxprocs":2,`, false},
		{`"cpu":"host B","gomaxprocs":2,`, true},
		{`"cpu":"host A","gomaxprocs":8,`, true},
		{``, true}, // an unstamped artifact cannot be shown to match
	} {
		write(newP, tc.stamp)
		var sb strings.Builder
		worse, err := compareFiles(oldP, newP, 0.20, &sb)
		if err != nil {
			t.Fatal(err)
		}
		if worse {
			t.Errorf("stamp %s: identical timings reported as regression:\n%s", tc.stamp, sb.String())
		}
		if got := strings.Contains(sb.String(), "warning: machines differ"); got != tc.warn {
			t.Errorf("stamp %s: warning printed = %v, want %v:\n%s", tc.stamp, got, tc.warn, sb.String())
		}
	}
}

func TestParseLineRejectsNonBench(t *testing.T) {
	for _, line := range []string{
		"PASS",
		"ok  	repro	1.2s",
		"Benchmark only-a-name",
		"BenchmarkX 12 nounit",
		"    bench_test.go:10: BenchmarkLooking 100 5 ns/op", // indented log
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("accepted %q", line)
		}
	}
	if _, ok := parseLine("BenchmarkX-4 12 5.0 widgets"); ok {
		t.Error("accepted line without ns/op")
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	oldP := filepath.Join(dir, "old.json")
	newP := filepath.Join(dir, "new.json")
	write := func(path, body string) {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(oldP, `{"date":"2026-01-01","benchmarks":[
		{"name":"BenchmarkA","iters":100000,"metrics":{"ns/op":1000}},
		{"name":"BenchmarkB","iters":100000,"metrics":{"ns/op":1000}}]}`)

	// Within threshold: 10% growth on A, B unchanged.
	write(newP, `{"date":"2026-01-02","benchmarks":[
		{"name":"BenchmarkA","iters":100000,"metrics":{"ns/op":1100}},
		{"name":"BenchmarkB","iters":100000,"metrics":{"ns/op":1000}},
		{"name":"BenchmarkNew","iters":100,"metrics":{"ns/op":5}}]}`)
	var sb strings.Builder
	worse, err := compareFiles(oldP, newP, 0.20, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if worse {
		t.Errorf("10%% growth flagged as regression:\n%s", sb.String())
	}
	// A benchmark the baseline lacks is informational, never a failure.
	if !strings.Contains(sb.String(), "new       BenchmarkNew") {
		t.Errorf("baseline-missing benchmark not reported as new:\n%s", sb.String())
	}

	// Over threshold: 50% growth on B; A vanished from the new run.
	write(newP, `{"date":"2026-01-02","benchmarks":[
		{"name":"BenchmarkB","iters":100000,"metrics":{"ns/op":1500}}]}`)
	sb.Reset()
	worse, err = compareFiles(oldP, newP, 0.20, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Errorf("50%% growth not flagged:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "REGRESS") {
		t.Errorf("missing REGRESS tag:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "missing   BenchmarkA") {
		t.Errorf("benchmark dropped from the new run not reported:\n%s", sb.String())
	}
}

// TestCompareOnlyNewAndMissingSucceeds pins the exit contract when the
// two artifacts share nothing: lots of churn, zero regressions, so the
// compare must succeed.
func TestCompareOnlyNewAndMissingSucceeds(t *testing.T) {
	dir := t.TempDir()
	oldP := filepath.Join(dir, "old.json")
	newP := filepath.Join(dir, "new.json")
	if err := os.WriteFile(oldP, []byte(`{"date":"2026-01-01","benchmarks":[
		{"name":"BenchmarkGone","iters":100,"metrics":{"ns/op":1000}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newP, []byte(`{"date":"2026-01-02","benchmarks":[
		{"name":"BenchmarkFresh","iters":100,"metrics":{"ns/op":9000}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	worse, err := compareFiles(oldP, newP, 0.20, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if worse {
		t.Errorf("disjoint artifacts reported as regression:\n%s", sb.String())
	}
	for _, want := range []string{"new       BenchmarkFresh", "missing   BenchmarkGone"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("output missing %q:\n%s", want, sb.String())
		}
	}
}

// TestCompareAllocGate pins the allocation rules: a 0-alloc baseline
// fails on any new allocation, a nonzero baseline tolerates growth up
// to the threshold and fails past it, and shrinking allocs never fails.
func TestCompareAllocGate(t *testing.T) {
	dir := t.TempDir()
	oldP := filepath.Join(dir, "old.json")
	newP := filepath.Join(dir, "new.json")
	write := func(path, body string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(oldP, `{"date":"2026-01-01","benchmarks":[
		{"name":"BenchmarkZero","iters":100,"metrics":{"ns/op":1000,"allocs/op":0}},
		{"name":"BenchmarkSome","iters":100,"metrics":{"ns/op":1000,"allocs/op":100}}]}`)

	// One alloc appears on the 0-alloc benchmark: fail even though ns/op
	// is flat and the proportional rule could never trip.
	write(newP, `{"date":"2026-01-02","benchmarks":[
		{"name":"BenchmarkZero","iters":100,"metrics":{"ns/op":1000,"allocs/op":1}},
		{"name":"BenchmarkSome","iters":100,"metrics":{"ns/op":1000,"allocs/op":100}}]}`)
	var sb strings.Builder
	worse, err := compareFiles(oldP, newP, 0.20, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Errorf("new alloc on 0-alloc benchmark not flagged:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "ALLOCS") {
		t.Errorf("missing ALLOCS tag:\n%s", sb.String())
	}

	// 15% alloc growth on the nonzero benchmark: within threshold.
	write(newP, `{"date":"2026-01-02","benchmarks":[
		{"name":"BenchmarkZero","iters":100,"metrics":{"ns/op":1000,"allocs/op":0}},
		{"name":"BenchmarkSome","iters":100,"metrics":{"ns/op":1000,"allocs/op":115}}]}`)
	sb.Reset()
	worse, err = compareFiles(oldP, newP, 0.20, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if worse {
		t.Errorf("15%% alloc growth flagged:\n%s", sb.String())
	}

	// 50% alloc growth: over threshold.
	write(newP, `{"date":"2026-01-02","benchmarks":[
		{"name":"BenchmarkZero","iters":100,"metrics":{"ns/op":1000,"allocs/op":0}},
		{"name":"BenchmarkSome","iters":100,"metrics":{"ns/op":1000,"allocs/op":150}}]}`)
	sb.Reset()
	worse, err = compareFiles(oldP, newP, 0.20, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Errorf("50%% alloc growth not flagged:\n%s", sb.String())
	}

	// Allocations collapsing (the point of an optimisation PR) passes.
	write(newP, `{"date":"2026-01-02","benchmarks":[
		{"name":"BenchmarkZero","iters":100,"metrics":{"ns/op":1000,"allocs/op":0}},
		{"name":"BenchmarkSome","iters":100,"metrics":{"ns/op":1000,"allocs/op":3}}]}`)
	sb.Reset()
	worse, err = compareFiles(oldP, newP, 0.20, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if worse {
		t.Errorf("alloc collapse flagged as regression:\n%s", sb.String())
	}
}

// TestParseBenchMinMerge pins the -count=N handling: repeated names
// collapse to the fastest repetition, carrying that run's full metric
// set.
func TestParseBenchMinMerge(t *testing.T) {
	in := `goos: linux
BenchmarkHot-8   100   1500 ns/op   64 B/op   2 allocs/op
BenchmarkCold-8  100   9000 ns/op
BenchmarkHot-8   100   1200 ns/op   64 B/op   2 allocs/op
BenchmarkHot-8   100   1900 ns/op   64 B/op   2 allocs/op
PASS
`
	f, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2: %+v", len(f.Benchmarks), f.Benchmarks)
	}
	byName := map[string]Result{}
	for _, b := range f.Benchmarks {
		byName[b.Name] = b
	}
	if got := byName["BenchmarkHot"].Metrics["ns/op"]; got != 1200 {
		t.Errorf("BenchmarkHot ns/op = %v, want the 1200 minimum", got)
	}
	if got := byName["BenchmarkHot"].Metrics["allocs/op"]; got != 2 {
		t.Errorf("BenchmarkHot allocs/op = %v, want 2", got)
	}
	if got := byName["BenchmarkCold"].Metrics["ns/op"]; got != 9000 {
		t.Errorf("BenchmarkCold ns/op = %v, want 9000", got)
	}
}

// TestCompareShortBenchmarkFloor pins the noise floor: a sub-quantum
// benchmark's ns/op swing is tagged "short" and never fails the gate,
// but its exact allocation contract still does.
func TestCompareShortBenchmarkFloor(t *testing.T) {
	dir := t.TempDir()
	oldP := filepath.Join(dir, "old.json")
	newP := filepath.Join(dir, "new.json")
	write := func(path, body string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// 100 iters x 50 ns = 5 us measured: far below the 5 ms floor.
	write(oldP, `{"date":"2026-01-01","benchmarks":[
		{"name":"BenchmarkTiny","iters":100,"metrics":{"ns/op":50,"allocs/op":0}}]}`)
	write(newP, `{"date":"2026-01-02","benchmarks":[
		{"name":"BenchmarkTiny","iters":100,"metrics":{"ns/op":100,"allocs/op":0}}]}`)
	var sb strings.Builder
	worse, err := compareFiles(oldP, newP, 0.20, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if worse {
		t.Errorf("sub-quantum ns/op swing failed the gate:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "short") {
		t.Errorf("noisy micro-benchmark not tagged short:\n%s", sb.String())
	}

	// The same tiny benchmark gaining an allocation still fails.
	write(newP, `{"date":"2026-01-02","benchmarks":[
		{"name":"BenchmarkTiny","iters":100,"metrics":{"ns/op":50,"allocs/op":1}}]}`)
	sb.Reset()
	worse, err = compareFiles(oldP, newP, 0.20, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Errorf("alloc gain on a short benchmark not flagged:\n%s", sb.String())
	}

	// Above the floor (1e7 iters x 50 ns = 0.5 s) the same swing fails.
	write(oldP, `{"date":"2026-01-01","benchmarks":[
		{"name":"BenchmarkTiny","iters":10000000,"metrics":{"ns/op":50,"allocs/op":0}}]}`)
	write(newP, `{"date":"2026-01-02","benchmarks":[
		{"name":"BenchmarkTiny","iters":10000000,"metrics":{"ns/op":100,"allocs/op":0}}]}`)
	sb.Reset()
	worse, err = compareFiles(oldP, newP, 0.20, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Errorf("measured 2x regression not flagged:\n%s", sb.String())
	}
}
