package obs

import (
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_concurrent_total", "concurrency check")
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if c.Add(-5); c.Value() != goroutines*perG {
		t.Error("negative Add must not move a counter")
	}
}

func TestCounterVecSeries(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_jobs_total", "jobs", "status")
	v.With("done").Add(3)
	v.With("failed").Inc()
	if v.With("done").Value() != 3 || v.With("failed").Value() != 1 {
		t.Fatalf("series values wrong: done=%d failed=%d",
			v.With("done").Value(), v.With("failed").Value())
	}
	// Same name and label resolve to the same family and series.
	if r.CounterVec("test_jobs_total", "jobs", "status").With("done") != v.With("done") {
		t.Error("CounterVec is not get-or-create")
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hist", "boundaries", []float64{1, 2, 5})
	// An observation exactly on a boundary belongs to that bucket
	// (le = less-or-equal), and values beyond the last bound land in
	// +Inf overflow.
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 5, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 2, 2, 1} // (≤1)=2, (1,2]=2, (2,5]=2, +Inf=1
	if len(s.Counts) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(s.Counts), len(want))
	}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 7 {
		t.Errorf("count = %d, want 7", s.Count)
	}
	if s.Sum != 0.5+1+1.5+2+3+5+100 {
		t.Errorf("sum = %g", s.Sum)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("alpha_total", "a counter").Add(7)
	r.Gauge("beta", "a gauge").Set(2.5)
	r.CounterVec("delta_total", "labeled", "kind").With(`we"ird\v`).Inc()
	r.Histogram("eps_seconds", "a histogram", []float64{0.1, 1}).Observe(0.5)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()

	// Every family carries a TYPE header.
	for _, want := range []string{
		"# TYPE alpha_total counter",
		"# TYPE beta gauge",
		"# TYPE delta_total counter",
		"# TYPE eps_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	for _, want := range []string{
		"alpha_total 7\n",
		"beta 2.5\n",
		`delta_total{kind="we\"ird\\v"} 1` + "\n",
		`eps_seconds_bucket{le="0.1"} 0` + "\n",
		`eps_seconds_bucket{le="1"} 1` + "\n",
		`eps_seconds_bucket{le="+Inf"} 1` + "\n",
		"eps_seconds_sum 0.5\n",
		"eps_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// Exactly one metric per non-comment line, in exposition syntax.
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

func TestRegistryShapeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("shape_total", "counter first")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("shape_total", "now a gauge")
}
