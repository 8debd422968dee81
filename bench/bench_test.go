package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/ebtable"
)

// small shrinks every workload so the whole suite runs in seconds.
func small(seed int64) Config {
	cfg := Default(seed, 0.4)
	cfg.SetupReps = 1
	cfg.SetupMinSeconds = 0
	cfg.MinOps = 1
	cfg.Paper.Grid = ebtable.Grid{Ps: []float64{0.01}, Bs: []int{1, 2}, Mts: []int{1, 2}, Mrs: []int{1, 2}}
	cfg.Paper.Quick = true
	cfg.TailBER.Budget = adaptive.Budget{TargetRelCI: 0.10, MaxTrials: 8 * 2048}
	cfg.TailBER.Cells = []Cell{cfg.TailBER.Cells[0], cfg.TailBER.Cells[2], cfg.TailBER.Cells[3], cfg.TailBER.Cells[4]}
	cfg.Serve.Rates = []float64{100, 200}
	cfg.Serve.ReportRate = 100
	cfg.Serve.HotIDs = []string{"fig6a", "table1"}
	cfg.Serve.HotSeeds = 2
	cfg.Serve.MissIDs = []string{"table2"}
	cfg.Serve.CheckEvery = 2
	cfg.Serve.Probes = 10
	cfg.Fanout.Quick = true
	cfg.Ladder.Chunks = 2
	cfg.Ladder.KernelTrials = 64
	return cfg
}

type runKey struct {
	workload string
	seed     int64
	trace    bool
}

var memo = map[runKey]*Result{}

// run runs a small workload once per key and caches the result.
func run(t *testing.T, workload string, seed int64, trace bool) *Result {
	t.Helper()
	k := runKey{workload, seed, trace}
	if r, ok := memo[k]; ok {
		return r
	}
	cfg := small(seed)
	cfg.Trace = trace
	r, err := Run(context.Background(), cfg, workload)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	memo[k] = r
	return r
}

func loadSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := LoadSpec("") // finds ../BENCHMARK.json from bench/
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestWorkloadsPrintDeclaredMetrics(t *testing.T) {
	spec := loadSpec(t)
	perLayer := map[string]string{}
	for _, w := range Workloads {
		r := run(t, w, 1, false)
		if !r.Correct() {
			t.Fatalf("%s: %d of %d ops failed: %v", w, r.Failed, r.Attempted, r.Failures)
		}
		if m, ok := r.Metric("fail_frac"); !ok || m.Value != 0 {
			t.Errorf("%s: fail_frac = %v, %v", w, m.Value, ok)
		}
		var line bytes.Buffer
		if err := spec.WriteSummary(&line, []*Result{r}, false); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		var got summaryLine
		if err := json.Unmarshal(line.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s: summary line has %d metrics, BENCHMARK.json declares %d", w, len(got.Metrics), len(spec.EndToEnd))
		}
		for _, d := range spec.EndToEnd {
			if m := got.Metrics[d.Name]; m.Unit != d.Unit || m.Value <= 0 {
				t.Errorf("%s: %s = %v %s, want a positive value in %s", w, d.Name, m.Value, m.Unit, d.Unit)
			}
		}
		for _, m := range run(t, w, 1, true).Metrics {
			perLayer[m.Name] = m.Unit
		}
	}
	for _, d := range spec.PerLayer {
		if unit, ok := perLayer[d.Name]; !ok || unit != d.Unit {
			t.Errorf("per-layer %s: measured in %q by no workload or in another unit, declared %s", d.Name, unit, d.Unit)
		}
	}
}

func TestDigestsFollowSeed(t *testing.T) {
	for _, w := range Workloads {
		a, b, c := run(t, w, 1, false), run(t, w, 1, true), run(t, w, 2, false)
		cfg := small(1)
		again, err := Run(context.Background(), cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest != again.Digest || a.InputDigest != again.InputDigest {
			t.Errorf("%s: two runs with seed 1 digest differently", w)
		}
		if a.Digest != b.Digest {
			t.Errorf("%s: traced digest %s, untraced %s", w, b.Digest, a.Digest)
		}
		if a.InputDigest == c.InputDigest {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", w)
		}
	}
}

func TestCorruptEbCountsAsFailure(t *testing.T) {
	cfg := small(1)
	cfg.SetupReps = 1
	cfg.tamperEb = func(tb *ebtable.Table) {
		for k := range tb.Vals {
			tb.Vals[k] *= 2
			return
		}
	}
	r, err := Run(context.Background(), cfg, "paper")
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := r.Metric("fail_frac"); r.Correct() || m.Value <= 0 {
		t.Errorf("doubled ēb cell passed: fail_frac %v, failures %v", m.Value, r.Failures)
	}
}

func TestTamperedResponseCountsAsFailure(t *testing.T) {
	cfg := small(1)
	var mu sync.Mutex
	tampered := false
	cfg.tamperBody = func(b []byte) []byte {
		mu.Lock()
		defer mu.Unlock()
		i := bytes.Index(b, []byte(`"report": "`))
		if i < 0 || tampered {
			return b
		}
		tampered = true
		b = append([]byte(nil), b...)
		b[i+len(`"report": "`)+3] ^= 1
		return b
	}
	r, err := Run(context.Background(), cfg, "serve")
	if err != nil {
		t.Fatal(err)
	}
	if !tampered {
		t.Fatal("no response carried a report")
	}
	if m, _ := r.Metric("fail_frac"); r.Failed != 1 || m.Value <= 0 {
		t.Errorf("one tampered response: failed %d, fail_frac %v", r.Failed, m.Value)
	}
}

// TestFanoutFailsWhenShardsRunLocally kills worker nodes after the
// registry probe. With one node left the coordinator reassigns its shards
// there and every op passes; with none it falls back to running shards
// in-process, whose reports still match, and every op must fail.
func TestFanoutFailsWhenShardsRunLocally(t *testing.T) {
	for _, tc := range []struct {
		kill int
		pass bool
	}{{1, true}, {fanoutNodes, false}} {
		cfg := small(1)
		cfg.killNodes = tc.kill
		r, err := Run(context.Background(), cfg, "fanout")
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case tc.pass && !r.Correct():
			t.Errorf("%d of %d nodes killed: %d of %d ops failed: %v", tc.kill, fanoutNodes, r.Failed, r.Attempted, r.Failures)
		case !tc.pass && r.Failed != r.Attempted:
			t.Errorf("%d of %d nodes killed: only %d of %d ops failed", tc.kill, fanoutNodes, r.Failed, r.Attempted)
		}
	}
}

func TestChecksRejectBadInput(t *testing.T) {
	grid := ebtable.Grid{Ps: []float64{0.01}, Bs: []int{1}, Mts: []int{1, 2}, Mrs: []int{1, 2}}
	an, err := ebtable.Build(ebtable.Analytic{}, grid)
	if err != nil {
		t.Fatal(err)
	}
	siso := ebtable.Key{PIdx: 0, B: 1, Mt: 1, Mr: 1}
	mimo := ebtable.Key{PIdx: 0, B: 1, Mt: 2, Mr: 2}
	for name, tc := range map[string]struct {
		bad  func(map[ebtable.Key]float64)
		pass bool
	}{
		"all 5% off":      {func(map[ebtable.Key]float64) {}, true},
		"1x1 30% off":     {func(m map[ebtable.Key]float64) { m[siso] *= 1.3 / 1.05 }, true},
		"1x1 50% off":     {func(m map[ebtable.Key]float64) { m[siso] *= 1.5 / 1.05 }, false},
		"2x2 12% off":     {func(m map[ebtable.Key]float64) { m[mimo] *= 1.12 / 1.05 }, false},
		"2x2 NaN":         {func(m map[ebtable.Key]float64) { m[mimo] = math.NaN() }, false},
		"2x2 cell absent": {func(m map[ebtable.Key]float64) { delete(m, mimo) }, false},
	} {
		tb := &ebtable.Table{Grid: grid, Vals: map[ebtable.Key]float64{}}
		for k, v := range an.Vals {
			tb.Vals[k] = v * 1.05
		}
		tc.bad(tb.Vals)
		if _, err := checkEb(tb, an); (err == nil) != tc.pass {
			t.Errorf("%s: check error %v, want pass %v", name, err, tc.pass)
		}
	}
	if checkReport("== a ==", "== a ==") != nil || checkReport("== a ==", "== b ==") == nil {
		t.Error("checkReport does not compare reports byte for byte")
	}

	cfg := small(1)
	cfg.TailBER.Budget.MaxTrials = 2048 // too small for coop.ber.adaptive 2x2 at 10 dB to stop
	cfg.TailBER.Cells = []Cell{Default(1, 0).TailBER.Cells[1]}
	r, err := Run(context.Background(), cfg, "tail-ber")
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct() {
		t.Error("a cell that ran out of budget before its CI target passed")
	}
}

func TestTracedSpansNestAndSelfTimesSum(t *testing.T) {
	for _, w := range Workloads {
		r := run(t, w, 1, true)
		if len(r.Layers) == 0 {
			t.Fatalf("%s: traced run has no self-time table", w)
		}
		byID := map[int]span{}
		for _, s := range r.spans {
			byID[s.ID] = s
		}
		wall := map[int]time.Duration{}
		for _, s := range r.spans {
			if s.End.Before(s.Start) {
				t.Errorf("%s: span %s ends before it starts", w, s.Name)
			}
			if s.Parent == 0 {
				wall[s.ID] = s.End.Sub(s.Start)
				continue
			}
			p, ok := byID[s.Parent]
			if !ok || p.Op != s.Op {
				t.Errorf("%s: span %s has no parent in its op", w, s.Name)
				continue
			}
			if s.Start.Before(p.Start) || s.End.After(p.End) {
				t.Errorf("%s: span %s [%v, %v] outside parent %s [%v, %v]", w, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
		sum := map[int]time.Duration{}
		for id, d := range selfTimes(r.spans) {
			sum[byID[id].Op] += d
		}
		for op, wl := range wall {
			if diff := math.Abs(float64(sum[op] - wl)); diff > 0.02*float64(wl)+1e3 {
				t.Errorf("%s: op %d self times sum to %v, wall %v", w, op, sum[op], wl)
			}
		}

		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, []*Result{r}); err != nil {
			t.Fatal(err)
		}
		var ct struct {
			TraceEvents []struct {
				Name  string  `json:"name"`
				Phase string  `json:"ph"`
				Ts    float64 `json:"ts"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
			t.Fatalf("%s: chrome trace: %v", w, err)
		}
		complete := 0
		for _, e := range ct.TraceEvents {
			if e.Phase == "X" {
				complete++
			}
		}
		if complete != len(r.spans) {
			t.Errorf("%s: chrome trace has %d complete events for %d spans", w, complete, len(r.spans))
		}
	}
}

func TestSelfTimesSplitConcurrentChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	spans := []span{
		{ID: 1, Op: 1, Name: "bench.op", Start: at(0), End: at(10)},
		{ID: 2, Parent: 1, Op: 1, Name: "ebtable.cell", Start: at(0), End: at(6)},
		{ID: 3, Parent: 1, Op: 1, Name: "ebtable.cell", Start: at(2), End: at(8)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 2 * time.Second, 2: 4 * time.Second, 3: 4 * time.Second}
	for id, d := range want {
		if self[id] != d {
			t.Errorf("span %d self %v, want %v", id, self[id], d)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if v, lvl := tail(make([]float64, 100)); v != 0 || lvl != 90 {
		t.Errorf("tail of 100 samples at p%v, want p90", lvl)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &Spec{EndToEnd: []SpecMetric{{Name: "op_p50_s", Unit: "s", Better: "lower", Bound: 0.1}}}
	runs := func(vs ...float64) []*Result {
		var out []*Result
		for _, v := range vs {
			out = append(out, &Result{Workload: "paper", Metrics: []Metric{{Name: "op_p50_s", Value: v, Unit: "s"}}})
		}
		return out
	}
	base := runs(1.00, 1.01, 0.99, 1.00, 1.02)
	for _, tc := range []struct {
		cand []*Result
		want string
	}{
		{runs(1.01, 1.00, 1.02, 0.99, 1.00), "unchanged"},
		{runs(1.30, 1.31, 1.29, 1.30, 1.32), "worse"},
		{runs(0.70, 0.71, 0.69, 0.70, 0.72), "improved"},
		{runs(0.5, 1.5, 0.6, 1.4, 1.0), "unresolved"},
		{runs(0.50, 0.90, 0.60, 0.95, 0.70), "improved"}, // noisy, yet every run beats every base run
	} {
		v := spec.Compare(base, tc.cand)
		if len(v) != 1 || v[0].Verdict != tc.want {
			t.Errorf("%v: got %+v, want %s", values(tc.cand, "paper", "op_p50_s"), v, tc.want)
		}
	}
}

func TestSpecShape(t *testing.T) {
	spec := loadSpec(t)
	valid := func(s string) bool {
		return s != "" && len(s) <= 64 && !strings.ContainsFunc(s, func(r rune) bool {
			return !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || strings.ContainsRune("_.-", r))
		})
	}
	seen := map[string]bool{}
	for _, m := range append(append([]SpecMetric{}, spec.EndToEnd...), spec.PerLayer...) {
		if !valid(m.Name) || seen[m.Name] || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("bad metric %+v", m)
		}
		seen[m.Name] = true
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(Workloads) {
		t.Errorf("BENCHMARK.json workloads %v, package runs %v", names, Workloads)
	}
}
