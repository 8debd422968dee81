package obs

import (
	"context"
	"log/slog"
	"sync"
	"time"
)

// spanDurations is the one histogram family all spans feed; the span
// name is the label, so keep names to a small fixed vocabulary
// ("http.request", "job.run", "cluster.shard", "mc.chunk", ...).
var spanDurations = Default.HistogramVec("obs_span_duration_seconds",
	"Duration of instrumented stages, labeled by span name.", "span", nil)

// Span is one timed stage. Every span feeds the duration histogram;
// when a TraceRecorder is attached to the starting context, the span
// additionally carries structural identity (trace id, span id, parent
// link) plus attributes and events, and records a SpanData on End.
//
// All methods are safe on a nil receiver, and the structural methods
// are no-ops when recording is off, so instrumentation sites never
// need to branch on whether tracing is enabled.
type Span struct {
	name  string
	start time.Time
	log   *slog.Logger
	lctx  context.Context // the starting ctx; log-enabled probes use it

	// Structural state; zero/nil unless a recorder was attached.
	rec    *TraceRecorder
	sc     SpanContext
	parent string

	mu     sync.Mutex
	ended  bool
	attrs  []Attr
	events []SpanEvent
}

// StartSpan begins timing a named stage. End records the duration into
// the Default registry and emits a debug log line through the context
// logger (with whatever trace/job attributes it carries).
//
// When ctx carries a TraceRecorder (see WithRecorder), the span gets
// structural identity — its trace id comes from the active parent span,
// a WithSpanParent link, the ctx trace id, or a fresh one, in that
// order — and the returned context carries the span so children parent
// themselves to it. Without a recorder the returned context is the
// input unchanged and the per-span cost stays what it always was: one
// histogram observation.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	s := &Span{name: name, start: time.Now(), log: Logger(ctx), lctx: ctx}
	rec := RecorderFrom(ctx)
	if rec == nil {
		return ctx, s
	}
	s.rec = rec
	if p := ActiveSpan(ctx); p != nil {
		s.sc.TraceID = p.sc.TraceID
		s.parent = p.sc.SpanID
	} else if rp, ok := spanParentFrom(ctx); ok {
		s.sc.TraceID = rp.TraceID
		s.parent = rp.SpanID
	} else if id := TraceID(ctx); id != "" {
		s.sc.TraceID = id
	} else {
		s.sc.TraceID = NewTraceID()
	}
	s.sc.SpanID = nextSpanID()
	return context.WithValue(ctx, ctxSpan, s), s
}

// End finishes the span: one histogram observation, an optional debug
// log line, and — when recording — one SpanData into the recorder.
// Idempotent; safe on a nil receiver.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	sd := SpanData{
		TraceID:  s.sc.TraceID,
		SpanID:   s.sc.SpanID,
		ParentID: s.parent,
		Name:     s.name,
		Start:    s.start,
		End:      end,
		Attrs:    s.attrs,
		Events:   s.events,
	}
	s.mu.Unlock()

	d := end.Sub(s.start)
	spanDurations.With(s.name).Observe(d.Seconds())
	if s.rec != nil {
		s.rec.Record(sd)
	}
	lctx := s.lctx
	if lctx == nil {
		lctx = context.Background()
	}
	if s.log.Enabled(lctx, slog.LevelDebug) {
		s.log.DebugContext(lctx, "span", "span", s.name, "duration", d)
	}
}

// SetAttr annotates the span; chainable. No-op unless recording.
func (s *Span) SetAttr(key, value string) *Span {
	if s == nil || s.rec == nil {
		return s
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
	return s
}

// SetStart backdates the span — used when the stage began before the
// observing code ran (a job span starts at submission, not when the
// worker picks it up). Only meaningful before End.
func (s *Span) SetStart(t time.Time) {
	if s == nil || t.IsZero() {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.start = t
	}
	s.mu.Unlock()
}

// Event marks a point in time inside the span — a retry, a hedge, a
// worker death. No-op unless recording.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil || s.rec == nil {
		return
	}
	ev := SpanEvent{Name: name, Time: time.Now(), Attrs: attrs}
	s.mu.Lock()
	if !s.ended {
		s.events = append(s.events, ev)
	}
	s.mu.Unlock()
}

// Recording reports whether this span records structural data.
func (s *Span) Recording() bool { return s != nil && s.rec != nil }

// TraceID returns the span's trace id, or "" when not recording.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.sc.TraceID
}

// SpanID returns the span's own id, or "" when not recording.
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.sc.SpanID
}

// SpanContext returns the span's wire-portable identity; the zero
// value when not recording.
func (s *Span) SpanContext() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// RecordSpan records an already-measured stage — the retroactive form
// of StartSpan/End, used when the interval's start predates the
// observing code (e.g. queue wait). It feeds the same histogram and,
// when ctx carries a recorder, a SpanData parented like StartSpan
// would parent a child.
func RecordSpan(ctx context.Context, name string, start, end time.Time, attrs ...Attr) {
	d := end.Sub(start)
	spanDurations.With(name).Observe(d.Seconds())
	if rec := RecorderFrom(ctx); rec != nil {
		sd := SpanData{Name: name, Start: start, End: end, Attrs: attrs}
		if p := ActiveSpan(ctx); p != nil {
			sd.TraceID = p.sc.TraceID
			sd.ParentID = p.sc.SpanID
		} else if rp, ok := spanParentFrom(ctx); ok {
			sd.TraceID = rp.TraceID
			sd.ParentID = rp.SpanID
		} else {
			sd.TraceID = TraceID(ctx)
		}
		if sd.TraceID != "" {
			sd.SpanID = nextSpanID()
			rec.Record(sd)
		}
	}
	l := Logger(ctx)
	if l.Enabled(ctx, slog.LevelDebug) {
		l.DebugContext(ctx, "span", "span", name, "duration", d)
	}
}
