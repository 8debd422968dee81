package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/mathx"
)

// Spec is the part of BENCHMARK.json cogbench reads: the length of a
// run, the workloads and every metric with its unit, direction and
// (end-to-end only) regression bound.
type Spec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []SpecWorkload `json:"workloads"`
	EndToEnd   []SpecMetric   `json:"end_to_end"`
	PerLayer   []SpecMetric   `json:"per_layer"`
}

// SpecWorkload names a workload and why it exists.
type SpecWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// SpecMetric declares one metric.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// LoadSpec reads BENCHMARK.json from path, or, when path is empty, from
// the working directory or its parent, so the command runs from the
// repository root or from bench/.
func LoadSpec(path string) (*Spec, error) {
	if path == "" {
		path = "BENCHMARK.json"
		if _, err := os.Stat(path); err != nil {
			path = "../BENCHMARK.json"
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if s.RunSeconds <= 0 {
		return nil, fmt.Errorf("bench: %s declares no run_seconds", path)
	}
	return &s, nil
}

// summaryLine is the one-line summary the last line of output carries.
type summaryLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// WriteSummary writes the one-line JSON summary of results: the
// declared end-to-end metrics for an untraced run, the declared
// per-layer metrics for a traced one. A per-layer metric of a layer the
// workload never enters is written as 0. Several results (-workload
// all) prefix each metric with its workload.
func (s *Spec) WriteSummary(w io.Writer, results []*Result, traced bool) error {
	line := summaryLine{Correct: true, Metrics: map[string]summaryMetric{}}
	declared := s.EndToEnd
	if traced {
		declared = s.PerLayer
	}
	for _, r := range results {
		line.Correct = line.Correct && r.Correct()
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for _, d := range declared {
			m, ok := r.Metric(d.Name)
			switch {
			case !ok && !traced:
				return fmt.Errorf("bench: %s did not measure end-to-end metric %s", r.Workload, d.Name)
			case !ok:
				m = Metric{Name: d.Name, Unit: d.Unit}
			case m.Unit != d.Unit:
				return fmt.Errorf("bench: %s measured %s in %s, BENCHMARK.json declares %s", r.Workload, d.Name, m.Unit, d.Unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				return fmt.Errorf("bench: %s measured %s = %v", r.Workload, d.Name, m.Value)
			}
			key := d.Name
			if len(results) > 1 {
				key = r.Workload + "." + d.Name
			}
			line.Metrics[key] = summaryMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// Verdict is one (workload, end-to-end metric) row of a comparison.
type Verdict struct {
	Workload string
	Metric   SpecMetric
	Base     float64 // median of the base runs
	New      float64 // median of the new runs
	// Worse is the relative change in the metric's bad direction:
	// positive is a regression, negative an improvement.
	Worse float64
	// Spread is the larger interquartile spread of the two sides, as a
	// share of their medians.
	Spread  float64
	Verdict string
}

// Compare judges new runs against base runs, per workload and declared
// end-to-end metric, under the metric's bound. A metric whose run-to-run
// spread exceeds its bound is unresolved, unless every new run beats
// every base run.
func (s *Spec) Compare(base, cand []*Result) []Verdict {
	var out []Verdict
	for _, wl := range Workloads {
		for _, m := range s.EndToEnd {
			b, n := values(base, wl, m.Name), values(cand, wl, m.Name)
			if len(b) == 0 && len(n) == 0 {
				continue
			}
			v := Verdict{Workload: wl, Metric: m}
			if len(b) == 0 || len(n) == 0 {
				v.Verdict = "unresolved"
				out = append(out, v)
				continue
			}
			v.Base, v.New = mathx.Median(b), mathx.Median(n)
			v.Spread = math.Max(spread(b), spread(n))
			sign := 1.0
			if m.Better == "higher" {
				sign = -1
			}
			if v.Base != 0 {
				v.Worse = sign * (v.New - v.Base) / math.Abs(v.Base)
			}
			allBetter := true
			for _, x := range n {
				for _, y := range b {
					allBetter = allBetter && sign*(x-y) < 0
				}
			}
			switch {
			case v.Spread > m.Bound && allBetter:
				v.Verdict = "improved"
			case v.Spread > m.Bound:
				v.Verdict = "unresolved"
			case v.Worse > m.Bound:
				v.Verdict = "worse"
			case v.Worse < -m.Bound:
				v.Verdict = "improved"
			default:
				v.Verdict = "unchanged"
			}
			out = append(out, v)
		}
	}
	return out
}

func values(rs []*Result, workload, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if r.Workload != workload {
			continue
		}
		if m, ok := r.Metric(metric); ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// Report is the -json file: the results of one cogbench invocation.
type Report struct {
	Results []*Result `json:"results"`
}

// LoadReport reads a -json file.
func LoadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return &rep, nil
}

// WriteChromeTrace writes the spans of every traced result as one
// Chrome trace_event file.
func WriteChromeTrace(w io.Writer, results []*Result) error {
	var all []span
	for _, r := range results {
		all = append(all, r.spans...)
	}
	return writeChromeTrace(w, all)
}
