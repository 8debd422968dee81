package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func mkSpan(trace, id, parent, name string, start, end time.Time) SpanData {
	return SpanData{TraceID: trace, SpanID: id, ParentID: parent, Name: name, Start: start, End: end}
}

func TestRecorderRecordAndTrace(t *testing.T) {
	r := NewTraceRecorder(4, 16)
	t0 := time.Now()
	r.Record(mkSpan("t1", "b", "a", "child", t0.Add(time.Millisecond), t0.Add(2*time.Millisecond)))
	r.Record(mkSpan("t1", "a", "", "root", t0, t0.Add(3*time.Millisecond)))

	tr, ok := r.Trace("t1")
	if !ok {
		t.Fatal("trace t1 not found")
	}
	if len(tr.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(tr.Spans))
	}
	if tr.Spans[0].Name != "root" || tr.Spans[1].Name != "child" {
		t.Fatalf("spans not sorted by start: %s, %s", tr.Spans[0].Name, tr.Spans[1].Name)
	}
	if _, ok := r.Trace("nope"); ok {
		t.Fatal("unknown trace reported found")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
}

func TestRecorderEvictionOrderAndPin(t *testing.T) {
	r := NewTraceRecorder(2, 16)
	t0 := time.Now()
	r.Record(mkSpan("old", "a", "", "x", t0, t0))
	r.Record(mkSpan("mid", "b", "", "x", t0, t0))
	if !r.Pin("old") {
		t.Fatal("Pin(old) = false")
	}
	// Third trace: "mid" (oldest unpinned) must go, "old" survives.
	r.Record(mkSpan("new", "c", "", "x", t0, t0))
	if _, ok := r.Trace("mid"); ok {
		t.Fatal("mid should have been evicted")
	}
	if _, ok := r.Trace("old"); !ok {
		t.Fatal("pinned trace was evicted")
	}
	if _, ok := r.Trace("new"); !ok {
		t.Fatal("new trace missing")
	}
	// Pin everything: a further trace is dropped, residents survive.
	r.Pin("new")
	r.Record(mkSpan("extra", "d", "", "x", t0, t0))
	if _, ok := r.Trace("extra"); ok {
		t.Fatal("extra admitted despite all slots pinned")
	}
	r.Unpin("old")
	r.Record(mkSpan("extra2", "e", "", "x", t0, t0))
	if _, ok := r.Trace("old"); ok {
		t.Fatal("unpinned old should now be evictable")
	}
	if r.Pin("ghost") {
		t.Fatal("Pin(unknown) = true")
	}
}

func TestRecorderPerTraceSpanCap(t *testing.T) {
	r := NewTraceRecorder(2, 3)
	t0 := time.Now()
	for i := 0; i < 5; i++ {
		r.Record(mkSpan("t", fmt.Sprintf("s%d", i), "", "x", t0, t0))
	}
	tr, _ := r.Trace("t")
	if len(tr.Spans) != 3 {
		t.Fatalf("spans = %d, want cap 3", len(tr.Spans))
	}
	if tr.Dropped != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped)
	}
}

func TestRecorderIgnoresEmptyTraceID(t *testing.T) {
	r := NewTraceRecorder(2, 4)
	r.Record(SpanData{SpanID: "x", Name: "orphan"})
	if r.Len() != 0 {
		t.Fatalf("Len = %d, want 0", r.Len())
	}
}

func TestRecorderRecent(t *testing.T) {
	r := NewTraceRecorder(8, 16)
	t0 := time.Now()
	r.Record(mkSpan("first", "a", "", "alpha", t0, t0.Add(time.Millisecond)))
	r.Record(mkSpan("second", "b", "", "beta", t0.Add(time.Second), t0.Add(2*time.Second)))
	rec := r.Recent(10)
	if len(rec) != 2 {
		t.Fatalf("recent = %d entries, want 2", len(rec))
	}
	if rec[0].TraceID != "second" {
		t.Fatalf("most recent = %s, want second", rec[0].TraceID)
	}
	if rec[0].Root != "beta" || rec[1].Root != "alpha" {
		t.Fatalf("roots = %s,%s", rec[0].Root, rec[1].Root)
	}
	if got := r.Recent(1); len(got) != 1 {
		t.Fatalf("limit 1 returned %d", len(got))
	}
}

func TestRecorderRootNamePicksParentlessSpan(t *testing.T) {
	r := NewTraceRecorder(2, 16)
	t0 := time.Now()
	// Child inserted first; root has the earliest start and no parent.
	r.Record(mkSpan("t", "c", "r", "child", t0.Add(time.Millisecond), t0.Add(2*time.Millisecond)))
	r.Record(mkSpan("t", "r", "", "entry", t0, t0.Add(3*time.Millisecond)))
	rec := r.Recent(1)
	if rec[0].Root != "entry" {
		t.Fatalf("root = %q, want entry", rec[0].Root)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewTraceRecorder(16, 64)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("trace-%d", i%20)
				r.Record(mkSpan(id, fmt.Sprintf("s-%d-%d", g, i), "", "x", t0, t0))
				r.Trace(id)
				r.Recent(5)
			}
		}(g)
	}
	wg.Wait()
	if r.Len() > 16 {
		t.Fatalf("Len = %d exceeds bound 16", r.Len())
	}
}

func TestStartSpanStructural(t *testing.T) {
	r := NewTraceRecorder(4, 64)
	ctx := WithRecorder(context.Background(), r)

	rctx, root := StartSpan(ctx, "outer")
	if !root.Recording() {
		t.Fatal("root not recording under recorder ctx")
	}
	if ActiveSpan(rctx) != root {
		t.Fatal("returned ctx does not carry the span")
	}
	if len(root.TraceID()) != 32 || len(root.SpanID()) != 16 {
		t.Fatalf("id lengths: trace %d, span %d", len(root.TraceID()), len(root.SpanID()))
	}

	cctx, child := StartSpan(rctx, "inner")
	if child.TraceID() != root.TraceID() {
		t.Fatal("child trace id differs from parent")
	}
	_ = cctx
	child.SetAttr("k", "v").SetAttr("k2", "v2")
	child.Event("retry", Attr{Key: "attempt", Value: "1"})
	child.End()
	root.End()
	root.End() // idempotent

	tr, ok := r.Trace(root.TraceID())
	if !ok {
		t.Fatal("trace not recorded")
	}
	if len(tr.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(tr.Spans))
	}
	var childSD *SpanData
	for i := range tr.Spans {
		if tr.Spans[i].Name == "inner" {
			childSD = &tr.Spans[i]
		}
	}
	if childSD == nil {
		t.Fatal("inner span not recorded")
	}
	if childSD.ParentID != root.SpanID() {
		t.Fatalf("child parent = %q, want %q", childSD.ParentID, root.SpanID())
	}
	if childSD.Attr("k") != "v" || childSD.Attr("k2") != "v2" {
		t.Fatalf("attrs = %+v", childSD.Attrs)
	}
	if len(childSD.Events) != 1 || childSD.Events[0].Name != "retry" {
		t.Fatalf("events = %+v", childSD.Events)
	}
}

func TestStartSpanWithoutRecorderIsStructureless(t *testing.T) {
	ctx := context.Background()
	rctx, s := StartSpan(ctx, "plain")
	if rctx != ctx {
		t.Fatal("ctx changed without a recorder")
	}
	if s.Recording() || s.TraceID() != "" || s.SpanID() != "" {
		t.Fatal("span has structure without a recorder")
	}
	s.SetAttr("a", "b") // all no-ops, must not panic
	s.Event("e")
	s.End()
}

func TestStartSpanParentResolutionOrder(t *testing.T) {
	r := NewTraceRecorder(8, 64)
	base := WithRecorder(context.Background(), r)

	// Remote parent beats ctx trace id.
	rp := SpanContext{TraceID: strings.Repeat("a", 32), SpanID: strings.Repeat("b", 16)}
	ctx := WithTraceID(WithSpanParent(base, rp), "ignored")
	_, s := StartSpan(ctx, "shard.execute")
	if s.TraceID() != rp.TraceID {
		t.Fatalf("trace = %s, want remote parent's", s.TraceID())
	}
	s.End()
	sp := r.Spans(rp.TraceID)
	if len(sp) != 1 || sp[0].ParentID != rp.SpanID {
		t.Fatalf("parent = %+v", sp)
	}

	// Ctx trace id adopted when no span/remote parent.
	ctx2 := WithTraceID(base, strings.Repeat("c", 32))
	_, s2 := StartSpan(ctx2, "job.run")
	if s2.TraceID() != strings.Repeat("c", 32) {
		t.Fatalf("trace = %s, want ctx trace id", s2.TraceID())
	}
	if s2.SpanContext().SpanID == "" {
		t.Fatal("no span id assigned")
	}
	s2.End()
}

func TestSpanSetStartBackdates(t *testing.T) {
	r := NewTraceRecorder(2, 8)
	ctx := WithRecorder(context.Background(), r)
	_, s := StartSpan(ctx, "job.run")
	past := time.Now().Add(-time.Hour)
	s.SetStart(past)
	s.SetStart(time.Time{}) // zero is ignored
	s.End()
	sp := r.Spans(s.TraceID())
	if len(sp) != 1 || !sp[0].Start.Equal(past) {
		t.Fatalf("start = %v, want %v", sp[0].Start, past)
	}
	if sp[0].Duration() < time.Hour {
		t.Fatalf("duration = %v, want >= 1h", sp[0].Duration())
	}
}

func TestRecordSpanParentsToActiveSpan(t *testing.T) {
	r := NewTraceRecorder(2, 8)
	ctx := WithRecorder(context.Background(), r)
	sctx, s := StartSpan(ctx, "job.run")
	t0 := time.Now().Add(-time.Second)
	RecordSpan(sctx, "queue.wait", t0, time.Now(), Attr{Key: "tenant", Value: "acme"})
	s.End()
	tr, _ := r.Trace(s.TraceID())
	var qw *SpanData
	for i := range tr.Spans {
		if tr.Spans[i].Name == "queue.wait" {
			qw = &tr.Spans[i]
		}
	}
	if qw == nil {
		t.Fatal("queue.wait not recorded")
	}
	if qw.ParentID != s.SpanID() {
		t.Fatalf("parent = %q, want %q", qw.ParentID, s.SpanID())
	}
	if qw.Attr("tenant") != "acme" {
		t.Fatalf("attrs = %+v", qw.Attrs)
	}
}

func TestRecordSpanNoTraceNoRecord(t *testing.T) {
	r := NewTraceRecorder(2, 8)
	ctx := WithRecorder(context.Background(), r)
	RecordSpan(ctx, "queue.wait", time.Now().Add(-time.Second), time.Now())
	if r.Len() != 0 {
		t.Fatal("recorded a span with no resolvable trace id")
	}
}

func TestWithRecorderNilMasks(t *testing.T) {
	r := NewTraceRecorder(2, 8)
	ctx := WithRecorder(context.Background(), r)
	masked := WithRecorder(ctx, nil)
	if RecorderFrom(masked) != nil {
		t.Fatal("nil recorder did not mask")
	}
	_, s := StartSpan(masked, "x")
	if s.Recording() {
		t.Fatal("span recording under masked recorder")
	}
}

// ctxMarkHandler enables debug logging only when the context carries a
// marker value — distinguishing "probed the passed ctx" from "probed
// context.Background()", which is exactly the satellite bug.
type ctxMark struct{}

type ctxMarkHandler struct {
	mu    sync.Mutex
	lines []string
}

func (h *ctxMarkHandler) Enabled(ctx context.Context, _ slog.Level) bool {
	on, _ := ctx.Value(ctxMark{}).(bool)
	return on
}

func (h *ctxMarkHandler) Handle(_ context.Context, rec slog.Record) error {
	h.mu.Lock()
	h.lines = append(h.lines, rec.Message)
	h.mu.Unlock()
	return nil
}

func (h *ctxMarkHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *ctxMarkHandler) WithGroup(string) slog.Handler      { return h }

func (h *ctxMarkHandler) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.lines)
}

func TestSpanEndProbesStartingContext(t *testing.T) {
	h := &ctxMarkHandler{}
	logger := slog.New(h)

	// Marked ctx: End must emit even though context.Background would say no.
	on := context.WithValue(context.Background(), ctxMark{}, true)
	_, s := StartSpan(WithLogger(on, logger), "probe.on")
	s.End()
	if h.count() != 1 {
		t.Fatalf("marked ctx: %d log lines, want 1", h.count())
	}

	// Unmarked ctx: End must stay silent.
	_, s2 := StartSpan(WithLogger(context.Background(), logger), "probe.off")
	s2.End()
	if h.count() != 1 {
		t.Fatalf("unmarked ctx: %d log lines, want still 1", h.count())
	}

	// RecordSpan uses the same passed-ctx probe.
	now := time.Now()
	RecordSpan(WithLogger(on, logger), "probe.obs", now.Add(-time.Millisecond), now)
	if h.count() != 2 {
		t.Fatalf("RecordSpan marked ctx: %d lines, want 2", h.count())
	}
}

func TestNextSpanIDUniqueAndPadded(t *testing.T) {
	seen := make(map[string]bool, 1000)
	for i := 0; i < 1000; i++ {
		id := nextSpanID()
		if len(id) != 16 {
			t.Fatalf("span id %q len %d", id, len(id))
		}
		if seen[id] {
			t.Fatalf("duplicate span id %q", id)
		}
		seen[id] = true
	}
}

func TestWriteChromeTrace(t *testing.T) {
	t0 := time.Now()
	root := mkSpan("t", "r", "", "cluster.run", t0, t0.Add(10*time.Millisecond))
	shard := mkSpan("t", "s1", "r", "cluster.shard", t0.Add(time.Millisecond), t0.Add(9*time.Millisecond))
	shard.Events = []SpanEvent{{Name: "retry", Time: t0.Add(4 * time.Millisecond), Attrs: []Attr{{Key: "attempt", Value: "1"}}}}
	exec := mkSpan("t", "w1", "s1", "shard.execute", t0.Add(2*time.Millisecond), t0.Add(8*time.Millisecond))
	exec.Attrs = []Attr{{Key: "node", Value: "worker-0"}}
	tr := Trace{TraceID: "t", Spans: []SpanData{root, shard, exec}}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if out.Unit != "ms" {
		t.Fatalf("displayTimeUnit = %q", out.Unit)
	}
	var lanes, complete, instants int
	laneNames := map[string]bool{}
	for _, ev := range out.TraceEvents {
		switch ev["ph"] {
		case "M":
			lanes++
			if args, ok := ev["args"].(map[string]any); ok {
				laneNames[args["name"].(string)] = true
			}
		case "X":
			complete++
			if ev["ts"].(float64) < 0 {
				t.Fatalf("negative ts in %+v", ev)
			}
		case "i":
			instants++
		}
	}
	if complete != 3 {
		t.Fatalf("complete events = %d, want 3", complete)
	}
	if instants != 1 {
		t.Fatalf("instant events = %d, want 1", instants)
	}
	if !laneNames["coordinator"] || !laneNames["worker-0"] {
		t.Fatalf("lanes = %v, want coordinator + worker-0", laneNames)
	}
	if lanes != 2 {
		t.Fatalf("lane metadata events = %d, want 2", lanes)
	}
}

func TestWriteChromeTraceNodeInheritedFromAncestor(t *testing.T) {
	t0 := time.Now()
	exec := mkSpan("t", "w1", "", "shard.execute", t0, t0.Add(time.Millisecond))
	exec.Attrs = []Attr{{Key: "node", Value: "worker-2"}}
	chunk := mkSpan("t", "c1", "w1", "mc.chunk", t0, t0.Add(time.Millisecond))
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, Trace{TraceID: "t", Spans: []SpanData{exec, chunk}}); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	// Both spans must land on the worker-2 lane (same non-zero tid).
	var tids []float64
	for _, ev := range out.TraceEvents {
		if ev["ph"] == "X" {
			tids = append(tids, ev["tid"].(float64))
		}
	}
	if len(tids) != 2 || tids[0] != tids[1] {
		t.Fatalf("tids = %v, want both on the same lane", tids)
	}
	if tids[0] == 0 {
		t.Fatal("worker spans placed on the coordinator lane")
	}
}
