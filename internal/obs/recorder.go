package obs

import (
	"sort"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span or event. Values are
// strings by design: attributes are for humans reading timelines, not
// for computation, and a single type keeps the wire form trivial.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanEvent is a point-in-time marker inside a span — a retry fired, a
// shard reassigned, a worker declared dead.
type SpanEvent struct {
	Name  string    `json:"name"`
	Time  time.Time `json:"time"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// SpanData is one finished span in wire form. It is what the recorder
// stores, what ShardResult carries back from workers, and what the
// trace endpoints serve. Timestamps are the recording node's clock;
// cross-node skew shifts lanes slightly but never breaks the tree,
// which hangs on ids alone.
type SpanData struct {
	TraceID  string      `json:"trace_id"`
	SpanID   string      `json:"span_id"`
	ParentID string      `json:"parent_id,omitempty"`
	Name     string      `json:"name"`
	Start    time.Time   `json:"start"`
	End      time.Time   `json:"end"`
	Attrs    []Attr      `json:"attrs,omitempty"`
	Events   []SpanEvent `json:"events,omitempty"`
}

// Attr returns the value of the named attribute, or "".
func (d SpanData) Attr(key string) string {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Trace is one merged timeline: every recorded span of a trace id, in
// start order.
type Trace struct {
	TraceID string     `json:"trace_id"`
	Spans   []SpanData `json:"spans"`
	// Dropped counts spans lost to the per-trace bound; a non-zero value
	// means the timeline is a prefix, not a lie.
	Dropped int  `json:"dropped_spans,omitempty"`
	Pinned  bool `json:"pinned,omitempty"`
}

// TraceSummary is one row of the recent-traces index.
type TraceSummary struct {
	TraceID  string    `json:"trace_id"`
	Root     string    `json:"root"`
	Start    time.Time `json:"start"`
	Duration float64   `json:"duration_seconds"`
	Spans    int       `json:"spans"`
	Pinned   bool      `json:"pinned,omitempty"`
}

// traceEntry is the recorder's per-trace bucket.
type traceEntry struct {
	spans   []SpanData
	dropped int
	pinned  bool
	first   time.Time // earliest span start seen
	last    time.Time // latest span end seen; recency for the index
}

// TraceRecorder is a bounded in-process sink for finished spans. Traces
// occupy slots in arrival order; when the trace bound is hit, the
// oldest unpinned trace is evicted to make room (a pinned trace — see
// Pin — survives until unpinned). Within a trace, spans beyond the
// per-trace bound are counted as dropped rather than stored, so one
// pathological run cannot eat the process.
//
// All methods are safe for concurrent use; Record is a short critical
// section (append + map lookup), cheap enough for per-chunk spans.
type TraceRecorder struct {
	mu        sync.Mutex
	maxTraces int
	maxSpans  int
	traces    map[string]*traceEntry
	order     []string // trace ids in first-seen order, for eviction
}

// NewTraceRecorder builds a recorder bounded to maxTraces distinct
// traces of maxSpansPerTrace spans each; zero or negative picks the
// defaults (256 traces × 4096 spans).
func NewTraceRecorder(maxTraces, maxSpansPerTrace int) *TraceRecorder {
	if maxTraces <= 0 {
		maxTraces = 256
	}
	if maxSpansPerTrace <= 0 {
		maxSpansPerTrace = 4096
	}
	return &TraceRecorder{
		maxTraces: maxTraces,
		maxSpans:  maxSpansPerTrace,
		traces:    make(map[string]*traceEntry),
	}
}

// Record stores one finished span. Spans without a trace id are
// dropped — they cannot be fetched, so storing them only burns slots.
func (r *TraceRecorder) Record(sd SpanData) {
	if sd.TraceID == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.traces[sd.TraceID]
	if e == nil {
		if len(r.traces) >= r.maxTraces && !r.evictLocked() {
			return // every slot pinned; drop the new trace
		}
		e = &traceEntry{first: sd.Start, last: sd.End}
		r.traces[sd.TraceID] = e
		r.order = append(r.order, sd.TraceID)
	}
	if len(e.spans) >= r.maxSpans {
		e.dropped++
	} else {
		e.spans = append(e.spans, sd)
	}
	if sd.Start.Before(e.first) {
		e.first = sd.Start
	}
	if sd.End.After(e.last) {
		e.last = sd.End
	}
}

// evictLocked removes the oldest unpinned trace; false when every
// resident trace is pinned.
func (r *TraceRecorder) evictLocked() bool {
	for i, id := range r.order {
		e, ok := r.traces[id]
		if ok && e.pinned {
			continue
		}
		delete(r.traces, id)
		r.order = append(r.order[:i], r.order[i+1:]...)
		return true
	}
	return false
}

// Import merges externally recorded spans — typically a worker's
// shard spans carried home in a ShardResult — into the recorder.
func (r *TraceRecorder) Import(spans []SpanData) {
	for _, sd := range spans {
		r.Record(sd)
	}
}

// Spans returns a copy of the recorded spans of one trace, in
// insertion order. Empty when the trace is unknown.
func (r *TraceRecorder) Spans(id string) []SpanData {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.traces[id]
	if e == nil {
		return nil
	}
	return append([]SpanData(nil), e.spans...)
}

// Trace returns one merged timeline, spans sorted by start time (ties
// by span id so the order is deterministic).
func (r *TraceRecorder) Trace(id string) (Trace, bool) {
	r.mu.Lock()
	e := r.traces[id]
	if e == nil {
		r.mu.Unlock()
		return Trace{}, false
	}
	t := Trace{
		TraceID: id,
		Spans:   append([]SpanData(nil), e.spans...),
		Dropped: e.dropped,
		Pinned:  e.pinned,
	}
	r.mu.Unlock()
	sort.SliceStable(t.Spans, func(i, j int) bool {
		if !t.Spans[i].Start.Equal(t.Spans[j].Start) {
			return t.Spans[i].Start.Before(t.Spans[j].Start)
		}
		return t.Spans[i].SpanID < t.Spans[j].SpanID
	})
	return t, true
}

// Recent returns summaries of up to limit traces, most recently active
// first; limit <= 0 means 64. The root name is the earliest span with
// no resident parent — for a complete trace, the entry point.
func (r *TraceRecorder) Recent(limit int) []TraceSummary {
	if limit <= 0 {
		limit = 64
	}
	r.mu.Lock()
	out := make([]TraceSummary, 0, len(r.traces))
	for id, e := range r.traces {
		out = append(out, TraceSummary{
			TraceID:  id,
			Root:     rootName(e.spans),
			Start:    e.first,
			Duration: e.last.Sub(e.first).Seconds(),
			Spans:    len(e.spans),
			Pinned:   e.pinned,
		})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		ti := out[i].Start.Add(time.Duration(out[i].Duration * float64(time.Second)))
		tj := out[j].Start.Add(time.Duration(out[j].Duration * float64(time.Second)))
		if !ti.Equal(tj) {
			return ti.After(tj)
		}
		return out[i].TraceID < out[j].TraceID
	})
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// rootName picks the name of the trace's apparent root: the earliest
// span whose parent is absent from the recorded set.
func rootName(spans []SpanData) string {
	if len(spans) == 0 {
		return ""
	}
	present := make(map[string]bool, len(spans))
	for _, sd := range spans {
		present[sd.SpanID] = true
	}
	best := -1
	for i, sd := range spans {
		if sd.ParentID != "" && present[sd.ParentID] {
			continue
		}
		if best < 0 || sd.Start.Before(spans[best].Start) {
			best = i
		}
	}
	if best < 0 {
		best = 0
	}
	return spans[best].Name
}

// Pin protects a trace from eviction — slow-job auto-capture uses it
// so the interesting trace is still there when an operator comes
// looking. Returns false for unknown traces.
func (r *TraceRecorder) Pin(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.traces[id]
	if e == nil {
		return false
	}
	e.pinned = true
	return true
}

// Len reports how many traces are resident.
func (r *TraceRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.traces)
}
