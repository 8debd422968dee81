package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default histogram boundaries for durations in
// seconds: 1 ms to 1 minute, roughly logarithmic — wide enough for a
// cache hit and a full-resolution Fig. 7 sweep on the same scale.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60,
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ n atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add increases the counter; negative deltas are ignored so the value
// stays monotonic.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.n.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is a settable float metric.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into fixed buckets. Buckets use
// Prometheus le semantics: an observation lands in the first bucket
// whose upper bound is >= the value, and the exposition renders
// cumulative counts plus _sum and _count.
type Histogram struct {
	uppers []float64
	mu     sync.Mutex
	counts []uint64 // len(uppers)+1; the last slot is the +Inf overflow
	sum    float64
	count  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.uppers, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// HistogramSnapshot is a consistent copy of a histogram's state.
// Counts are per-bucket (not cumulative) and the final entry is the
// +Inf overflow bucket.
type HistogramSnapshot struct {
	Uppers []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Snapshot copies the histogram state under its lock.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Uppers: h.uppers,
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
	}
}

// family is one exposition family: a name, a type, and the series
// under it (one for plain metrics, one per label value for vecs).
type family struct {
	name    string
	help    string
	kind    string // "counter", "gauge" or "histogram"
	label   string // label name; "" for unlabeled families
	buckets []float64
	// composite families key series by a pre-rendered label body
	// (`a="x",b="y"`) instead of a single label value; used by InfoGauge.
	composite bool

	mu     sync.Mutex
	series map[string]*series // keyed by label value; "" for unlabeled
}

type series struct {
	c *Counter
	g *Gauge
	h *Histogram
}

// Registry is a set of metric families renderable as Prometheus text.
// The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// Default is the process-wide registry served at /metrics/prom.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// getFamily returns the family for name, creating it on first use, and
// panics when the name is reused with a different shape — that is a
// programming error, not a runtime condition.
func (r *Registry) getFamily(name, help, kind, label string, buckets []float64) *family {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if label != "" && !labelRe.MatchString(label) {
		panic(fmt.Sprintf("obs: invalid label name %q", label))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name: name, help: help, kind: kind, label: label,
			buckets: append([]float64(nil), buckets...),
			series:  make(map[string]*series),
		}
		sort.Float64s(f.buckets)
		r.families[name] = f
		return f
	}
	if f.kind != kind || f.label != label {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s{%s}, was %s{%s}",
			name, kind, label, f.kind, f.label))
	}
	if kind == "histogram" && len(f.buckets) != len(buckets) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with different buckets", name))
	}
	return f
}

// get returns the series for a label value, creating it on first use.
func (f *family) get(value string) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[value]
	if !ok {
		s = &series{}
		switch f.kind {
		case "counter":
			s.c = &Counter{}
		case "gauge":
			s.g = &Gauge{}
		case "histogram":
			s.h = &Histogram{
				uppers: f.buckets,
				counts: make([]uint64, len(f.buckets)+1),
			}
		}
		f.series[value] = s
	}
	return s
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.getFamily(name, help, "counter", "", nil).get("").c
}

// CounterVec is a counter family split by one label.
type CounterVec struct{ fam *family }

// CounterVec returns the labeled counter family under name.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return &CounterVec{fam: r.getFamily(name, help, "counter", label, nil)}
}

// With returns the counter for one label value.
func (v *CounterVec) With(value string) *Counter { return v.fam.get(value).c }

// Gauge returns the settable gauge registered under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.getFamily(name, help, "gauge", "", nil).get("").g
}

// Label is one name/value pair for multi-label metrics (see InfoGauge).
type Label struct {
	Name  string
	Value string
}

// InfoGauge returns a gauge carrying a fixed multi-label identity —
// the Prometheus "info metric" idiom (`build_info{version="...",...} 1`).
// Labels are sorted by name, so call order does not create duplicate
// series. Panics on invalid label names, like every other registrar.
func (r *Registry) InfoGauge(name, help string, labels ...Label) *Gauge {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for i, l := range ls {
		if !labelRe.MatchString(l.Name) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Name))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	f := r.getFamily(name, help, "gauge", "", nil)
	f.mu.Lock()
	f.composite = true
	f.mu.Unlock()
	return f.get(b.String()).g
}

// Histogram returns the fixed-bucket histogram registered under name.
// A nil or empty buckets slice selects DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	return r.getFamily(name, help, "histogram", "", buckets).get("").h
}

// HistogramVec is a histogram family split by one label.
type HistogramVec struct{ fam *family }

// HistogramVec returns the labeled histogram family under name.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	return &HistogramVec{fam: r.getFamily(name, help, "histogram", label, buckets)}
}

// With returns the histogram for one label value.
func (v *HistogramVec) With(value string) *Histogram { return v.fam.get(value).h }

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4), families sorted by name and
// series by label value.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		f.write(w)
	}
}

func (f *family) write(w io.Writer) {
	f.mu.Lock()
	values := make([]string, 0, len(f.series))
	for v := range f.series {
		values = append(values, v)
	}
	sort.Strings(values)
	// Snapshot everything under the family lock so one scrape is
	// internally consistent per family.
	type snap struct {
		value string
		num   float64
		isInt bool
		hist  HistogramSnapshot
	}
	composite := f.composite
	snaps := make([]snap, 0, len(values))
	for _, v := range values {
		s := f.series[v]
		sn := snap{value: v}
		switch f.kind {
		case "counter":
			sn.num, sn.isInt = float64(s.c.Value()), true
		case "gauge":
			sn.num = s.g.Value()
		case "histogram":
			sn.hist = s.h.Snapshot()
		}
		snaps = append(snaps, sn)
	}
	f.mu.Unlock()

	if f.help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
	for _, sn := range snaps {
		labels := labelPair(f.label, sn.value)
		if composite && sn.value != "" {
			labels = "{" + sn.value + "}" // pre-rendered, already escaped
		}
		switch f.kind {
		case "counter", "gauge":
			if sn.isInt {
				fmt.Fprintf(w, "%s%s %d\n", f.name, labels, int64(sn.num))
			} else {
				fmt.Fprintf(w, "%s%s %s\n", f.name, labels, formatFloat(sn.num))
			}
		case "histogram":
			var cum uint64
			for i, upper := range sn.hist.Uppers {
				cum += sn.hist.Counts[i]
				fmt.Fprintf(w, "%s_bucket%s %d\n",
					f.name, bucketLabels(f.label, sn.value, formatFloat(upper)), cum)
			}
			cum += sn.hist.Counts[len(sn.hist.Uppers)]
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, bucketLabels(f.label, sn.value, "+Inf"), cum)
			fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelPair(f.label, sn.value), formatFloat(sn.hist.Sum))
			fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelPair(f.label, sn.value), sn.hist.Count)
		}
	}
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func labelPair(label, value string) string {
	if label == "" {
		return ""
	}
	return "{" + label + `="` + escapeLabel(value) + `"}`
}

func bucketLabels(label, value, le string) string {
	if label == "" {
		return `{le="` + le + `"}`
	}
	return "{" + label + `="` + escapeLabel(value) + `",le="` + le + `"}`
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }
