package cluster

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// traceByName indexes a merged trace's spans by name.
func traceByName(tr obs.Trace) map[string][]obs.SpanData {
	out := map[string][]obs.SpanData{}
	for _, sd := range tr.Spans {
		out[sd.Name] = append(out[sd.Name], sd)
	}
	return out
}

// eventNames flattens every event name in the trace.
func eventNames(tr obs.Trace) map[string]int {
	out := map[string]int{}
	for _, sd := range tr.Spans {
		for _, ev := range sd.Events {
			out[ev.Name]++
		}
	}
	return out
}

// TestDistributedTraceMergesWorkerSpans runs a traced distributed run
// over 3 loopback workers with one induced transient failure and
// asserts the coordinator's recorder ends up holding one timeline:
// cluster.run → cluster.shard per shard → shard.execute per worker →
// mc.chunk leaves, with a retry event on the failed shard.
func TestDistributedTraceMergesWorkerSpans(t *testing.T) {
	run := testRun()
	want := localResult(t, run)

	lb := NewLoopback("a", "b", "c")
	lb.Node("a").FailNext(1) // one transient failure → one retry event
	reg := NewRegistry(lb, "a", "b", "c")
	co := NewCoordinator(lb, reg, Config{})

	rec := obs.NewTraceRecorder(8, 4096)
	ctx := obs.WithRecorder(context.Background(), rec)
	ctx = sim.WithExecutor(ctx, co)

	mc := sim.MonteCarlo{Seed: run.Seed}
	got, err := mc.RunKernelCtx(ctx, run.Kernel, run.Params, run.Trials)
	if err != nil {
		t.Fatalf("RunKernelCtx: %v", err)
	}
	if got != want {
		t.Fatalf("traced distributed stats differ from local:\n got %+v\nwant %+v", got, want)
	}

	if rec.Len() != 1 {
		t.Fatalf("recorder holds %d traces, want 1", rec.Len())
	}
	sum := rec.Recent(1)
	tr, ok := rec.Trace(sum[0].TraceID)
	if !ok {
		t.Fatal("trace vanished")
	}
	byName := traceByName(tr)

	roots := byName["cluster.run"]
	if len(roots) != 1 {
		t.Fatalf("cluster.run spans = %d, want 1", len(roots))
	}
	root := roots[0]
	if root.Attr("kernel") != run.Kernel {
		t.Fatalf("cluster.run kernel attr = %q", root.Attr("kernel"))
	}

	shards := byName["cluster.shard"]
	if len(shards) != 3 {
		t.Fatalf("cluster.shard spans = %d, want 3", len(shards))
	}
	shardIDs := map[string]bool{}
	for _, sh := range shards {
		if sh.ParentID != root.SpanID {
			t.Fatalf("cluster.shard parent = %q, want cluster.run %q", sh.ParentID, root.SpanID)
		}
		shardIDs[sh.SpanID] = true
	}

	execs := byName["shard.execute"]
	if len(execs) < 3 {
		t.Fatalf("shard.execute spans = %d, want >= 3", len(execs))
	}
	nodes := map[string]bool{}
	for _, ex := range execs {
		if !shardIDs[ex.ParentID] {
			t.Fatalf("shard.execute parent %q is not a cluster.shard span", ex.ParentID)
		}
		if n := ex.Attr("node"); n != "" {
			nodes[n] = true
		}
	}
	if len(nodes) < 2 {
		t.Fatalf("shard.execute spans name %d distinct nodes, want >= 2", len(nodes))
	}

	// Worker-side chunk spans rode home inside ShardResult.Spans and
	// must parent to their shard.execute span.
	chunks := byName["mc.chunk"]
	if len(chunks) == 0 {
		t.Fatal("no mc.chunk spans in merged trace")
	}
	execIDs := map[string]bool{}
	for _, ex := range execs {
		execIDs[ex.SpanID] = true
	}
	for _, ch := range chunks {
		if !execIDs[ch.ParentID] {
			t.Fatalf("mc.chunk parent %q is not a shard.execute span", ch.ParentID)
		}
	}

	if byName["mc.fold"] == nil {
		t.Fatal("no mc.fold span")
	}

	evs := eventNames(tr)
	if evs["retry"] == 0 {
		t.Fatalf("no retry event despite induced failure; events = %v", evs)
	}
	if evs["worker_dead"] == 0 {
		t.Fatalf("no worker_dead event despite induced failure; events = %v", evs)
	}
}

// TestDistributedTraceOffByDefault proves the whole path records
// nothing and changes nothing when no recorder is attached.
func TestDistributedTraceOffByDefault(t *testing.T) {
	run := testRun()
	want := localResult(t, run)

	lb := NewLoopback("a", "b", "c")
	reg := NewRegistry(lb, "a", "b", "c")
	co := NewCoordinator(lb, reg, Config{})

	ctx := sim.WithExecutor(context.Background(), co)
	mc := sim.MonteCarlo{Seed: run.Seed}
	got, err := mc.RunKernelCtx(ctx, run.Kernel, run.Params, run.Trials)
	if err != nil {
		t.Fatalf("RunKernelCtx: %v", err)
	}
	if got != want {
		t.Fatalf("untraced distributed stats differ from local")
	}
}

// TestShardRequestTracePropagation checks the worker side in isolation:
// a traced request returns spans parented under the given parent id,
// an untraced request returns none.
func TestShardRequestTracePropagation(t *testing.T) {
	run := testRun()
	req := ShardRequest{
		Kernel: run.Kernel, Params: run.Params, Seed: run.Seed,
		Trials: run.Trials, ChunkLo: 0, ChunkHi: 2, ChunkSize: sim.ChunkSize,
		Trace: true, TraceID: "0123456789abcdef0123456789abcdef", ParentSpan: "00000000deadbeef",
	}
	res, err := ExecuteShard(context.Background(), "w0", 1, req)
	if err != nil {
		t.Fatalf("ExecuteShard: %v", err)
	}
	if len(res.Spans) == 0 {
		t.Fatal("traced shard returned no spans")
	}
	var exec *obs.SpanData
	for i := range res.Spans {
		if res.Spans[i].Name == "shard.execute" {
			exec = &res.Spans[i]
		}
		if res.Spans[i].TraceID != req.TraceID {
			t.Fatalf("span trace id %q != request %q", res.Spans[i].TraceID, req.TraceID)
		}
	}
	if exec == nil {
		t.Fatal("no shard.execute span")
	}
	if exec.ParentID != req.ParentSpan {
		t.Fatalf("shard.execute parent = %q, want %q", exec.ParentID, req.ParentSpan)
	}
	if exec.Attr("node") != "w0" {
		t.Fatalf("node attr = %q", exec.Attr("node"))
	}

	req.Trace, req.TraceID, req.ParentSpan = false, "", ""
	res, err = ExecuteShard(context.Background(), "w0", 1, req)
	if err != nil {
		t.Fatalf("untraced ExecuteShard: %v", err)
	}
	if len(res.Spans) != 0 {
		t.Fatalf("untraced shard returned %d spans", len(res.Spans))
	}
}
