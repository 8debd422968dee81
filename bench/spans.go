package bench

import (
	"context"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one interval the benchmark timed around a call into the
// program. Spans are the benchmark's own: nothing here attaches an
// obs.TraceRecorder to contexts handed to the program, so the program
// runs exactly as it does untraced.
type span struct {
	ID, Parent, Op int
	Name           string
	Start, End     time.Time
	Attrs          []obs.Attr
}

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid, disabled tracer: every method is a no-op on it.
type tracer struct {
	mu    sync.Mutex
	spans []span
	next  int
}

type spanKey struct{}

// spanRef is the identity a context carries so children can find their
// parent and op.
type spanRef struct{ id, op int }

// newID allocates a fresh span id.
func (t *tracer) newID() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// op starts the root span of one traced op. The returned end function
// records the span; it must be called exactly once.
func (t *tracer) op(ctx context.Context, name string, start time.Time) (context.Context, func(attrs ...obs.Attr)) {
	if t == nil {
		return ctx, func(...obs.Attr) {}
	}
	id := t.newID()
	return t.open(ctx, spanRef{id: id, op: id}, 0, name, start)
}

// child starts a span under the span ctx carries. Without a traced
// parent (an untraced op on a traced run) it records nothing.
func (t *tracer) child(ctx context.Context, name string) (context.Context, func(attrs ...obs.Attr)) {
	p, ok := ctx.Value(spanKey{}).(spanRef)
	if t == nil || !ok {
		return ctx, func(...obs.Attr) {}
	}
	return t.open(ctx, spanRef{id: t.newID(), op: p.op}, p.id, name, time.Now())
}

func (t *tracer) open(ctx context.Context, ref spanRef, parent int, name string, start time.Time) (context.Context, func(attrs ...obs.Attr)) {
	ctx = context.WithValue(ctx, spanKey{}, ref)
	return ctx, func(attrs ...obs.Attr) {
		s := span{ID: ref.id, Parent: parent, Op: ref.op, Name: name, Start: start, End: time.Now(), Attrs: attrs}
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// traced reports whether ctx belongs to a traced op.
func traced(ctx context.Context) bool {
	_, ok := ctx.Value(spanKey{}).(spanRef)
	return ok
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerOf names a span's layer: the module prefix of its name
// ("ebtable.cell" belongs to ebtable).
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// LayerTime is one row of the per-layer self-time table.
type LayerTime struct {
	Layer string  `json:"layer"`
	SelfS float64 `json:"self_s"`
	// Share is SelfS over the summed wall time of the traced ops.
	Share float64 `json:"share"`
	Spans int     `json:"spans"`
}

// selfTimes attributes every instant of each op's wall time to the
// innermost spans active at that instant. A span with no concurrent
// siblings gets its duration minus the part its children cover; spans
// running concurrently under one parent (ebtable cells on two build
// workers, two shards in flight) split the instants they share equally,
// so per op the attributions sum to the op's wall time.
func selfTimes(spans []span) map[int]time.Duration {
	byOp := map[int][]span{}
	for _, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, ss := range byOp {
		var cuts []time.Time
		for _, s := range ss {
			cuts = append(cuts, s.Start, s.End)
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i].Before(cuts[j]) })
		active := map[int]bool{}
		for i := 0; i+1 < len(cuts); i++ {
			lo, hi := cuts[i], cuts[i+1]
			if !hi.After(lo) {
				continue
			}
			clear(active)
			for _, s := range ss {
				if !s.Start.After(lo) && !s.End.Before(hi) {
					active[s.ID] = true
				}
			}
			var leaves []int
			for _, s := range ss {
				if !active[s.ID] {
					continue
				}
				leaf := true
				for _, c := range ss {
					if c.Parent == s.ID && active[c.ID] {
						leaf = false
						break
					}
				}
				if leaf {
					leaves = append(leaves, s.ID)
				}
			}
			for _, id := range leaves {
				self[id] += hi.Sub(lo) / time.Duration(len(leaves))
			}
		}
	}
	return self
}

// layerTable sums self time per layer over every traced op of the
// workload, leaving out the ladder's ops.
func layerTable(all []span) []LayerTime {
	ladder := map[int]bool{}
	for _, s := range all {
		if s.Parent == 0 && s.Name == ladderOp {
			ladder[s.Op] = true
		}
	}
	var spans []span
	for _, s := range all {
		if !ladder[s.Op] {
			spans = append(spans, s)
		}
	}
	self := selfTimes(spans)
	rows := map[string]*LayerTime{}
	var wall time.Duration
	for _, s := range spans {
		if s.Parent == 0 {
			wall += s.End.Sub(s.Start)
		}
		l := layerOf(s.Name)
		r := rows[l]
		if r == nil {
			r = &LayerTime{Layer: l}
			rows[l] = r
		}
		r.SelfS += self[s.ID].Seconds()
		r.Spans++
	}
	out := make([]LayerTime, 0, len(rows))
	for _, r := range rows {
		if wall > 0 {
			r.Share = r.SelfS / wall.Seconds()
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// writeChromeTrace renders the spans as Chrome trace_event JSON through
// the program's own exporter, one trace id per op.
func writeChromeTrace(w io.Writer, spans []span) error {
	tr := obs.Trace{TraceID: "cogbench", Spans: make([]obs.SpanData, 0, len(spans))}
	for _, s := range spans {
		sd := obs.SpanData{
			TraceID: "op" + strconv.Itoa(s.Op),
			SpanID:  strconv.Itoa(s.ID),
			Name:    s.Name,
			Start:   s.Start,
			End:     s.End,
			Attrs:   s.Attrs,
		}
		if s.Parent != 0 {
			sd.ParentID = strconv.Itoa(s.Parent)
		}
		tr.Spans = append(tr.Spans, sd)
	}
	return obs.WriteChromeTrace(w, tr)
}
