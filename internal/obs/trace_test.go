package obs

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestTraceIDContext(t *testing.T) {
	if TraceID(context.Background()) != "" {
		t.Fatal("empty context must have no trace id")
	}
	id := NewTraceID()
	if len(id) != 32 {
		t.Fatalf("trace id %q, want 32 hex chars", id)
	}
	if id == NewTraceID() {
		t.Fatal("trace ids must not repeat")
	}
	ctx := WithTraceID(context.Background(), id)
	if got := TraceID(ctx); got != id {
		t.Fatalf("TraceID = %q, want %q", got, id)
	}
}

func TestLoggerContext(t *testing.T) {
	if Logger(context.Background()) != slog.Default() {
		t.Fatal("empty context must fall back to slog.Default")
	}
	var buf bytes.Buffer
	l := slog.New(slog.NewTextHandler(&buf, nil))
	ctx := WithLogger(context.Background(), l)
	Logger(ctx).Info("hello", "k", "v")
	if !strings.Contains(buf.String(), "hello") {
		t.Fatalf("context logger not used: %q", buf.String())
	}
}

func TestSpanRecordsDurationAndLog(t *testing.T) {
	var buf bytes.Buffer
	l := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	ctx := WithLogger(context.Background(), l)

	before := spanDurations.With("test.span").Snapshot().Count
	_, span := StartSpan(ctx, "test.span")
	span.End()
	after := spanDurations.With("test.span").Snapshot().Count
	if after != before+1 {
		t.Fatalf("span histogram count %d -> %d, want +1", before, after)
	}
	if !strings.Contains(buf.String(), "test.span") {
		t.Errorf("span debug log missing: %q", buf.String())
	}

	now := time.Now()
	RecordSpan(ctx, "test.span", now.Add(-3*time.Millisecond), now)
	if got := spanDurations.With("test.span").Snapshot().Count; got != after+1 {
		t.Fatalf("RecordSpan did not record: count = %d", got)
	}

	var nilSpan *Span
	nilSpan.End() // must not panic
}
