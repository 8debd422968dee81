package cluster

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/sim"

	_ "repro/internal/simkern" // register coop.ber / multihop.ber
)

// testRun is a small but multi-chunk kernel run shared by the scheduler
// tests: 5 chunks so 3 workers get uneven shards.
func testRun() sim.KernelRun {
	return sim.KernelRun{
		Kernel: "coop.ber",
		Params: map[string]float64{"mt": 2, "mr": 2, "snr_db": 6, "bits": 16},
		Seed:   1,
		Trials: 5 * sim.ChunkSize,
	}
}

// localResult computes the run on the plain in-process pool — the
// reference every distributed result must equal bit-for-bit.
func localResult(t *testing.T, run sim.KernelRun) mathx.Running {
	t.Helper()
	mc := sim.MonteCarlo{Seed: run.Seed, Workers: 2}
	got, err := mc.RunKernelCtx(context.Background(), run.Kernel, run.Params, run.Trials)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	return got
}

// distResult runs the kernel with co attached as the executor.
func distResult(ctx context.Context, co *Coordinator, run sim.KernelRun) (mathx.Running, error) {
	mc := sim.MonteCarlo{Seed: run.Seed}
	return mc.RunKernelCtx(sim.WithExecutor(ctx, co), run.Kernel, run.Params, run.Trials)
}

func TestShardRanges(t *testing.T) {
	cases := []struct {
		chunks, want int
		ranges       []shard
	}{
		{5, 3, []shard{{0, 1}, {1, 3}, {3, 5}}},
		{4, 2, []shard{{0, 2}, {2, 4}}},
		{2, 5, []shard{{0, 1}, {1, 2}}},
		{1, 1, []shard{{0, 1}}},
	}
	for _, tc := range cases {
		got := shardRanges(tc.chunks, tc.want)
		if len(got) != len(tc.ranges) {
			t.Fatalf("shardRanges(%d, %d) = %v, want %v", tc.chunks, tc.want, got, tc.ranges)
		}
		for i := range got {
			if got[i] != tc.ranges[i] {
				t.Errorf("shardRanges(%d, %d)[%d] = %v, want %v", tc.chunks, tc.want, i, got[i], tc.ranges[i])
			}
		}
		// Ranges must tile [0, chunks) exactly: no gap, no overlap.
		next := 0
		for _, s := range got {
			if s.lo != next || s.hi <= s.lo {
				t.Fatalf("shardRanges(%d, %d): range %v breaks tiling at %d", tc.chunks, tc.want, s, next)
			}
			next = s.hi
		}
		if next != tc.chunks {
			t.Fatalf("shardRanges(%d, %d) covers [0, %d), want [0, %d)", tc.chunks, tc.want, next, tc.chunks)
		}
	}
}

func TestShardRequestValidate(t *testing.T) {
	good := ShardRequest{Kernel: "coop.ber", Seed: 1, Trials: 3 * sim.ChunkSize, ChunkLo: 0, ChunkHi: 3, ChunkSize: sim.ChunkSize}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	bad := []ShardRequest{
		{Kernel: "", Seed: 1, Trials: sim.ChunkSize, ChunkHi: 1, ChunkSize: sim.ChunkSize},
		{Kernel: "k", Seed: 1, Trials: sim.ChunkSize, ChunkHi: 1, ChunkSize: 1024},
		{Kernel: "k", Seed: 1, Trials: 0, ChunkHi: 1, ChunkSize: sim.ChunkSize},
		{Kernel: "k", Seed: 1, Trials: sim.ChunkSize, ChunkLo: 1, ChunkHi: 1, ChunkSize: sim.ChunkSize},
		{Kernel: "k", Seed: 1, Trials: sim.ChunkSize, ChunkLo: 0, ChunkHi: 2, ChunkSize: sim.ChunkSize},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad request %d accepted: %+v", i, r)
		}
	}
}

func TestRegistryTransitions(t *testing.T) {
	lb := NewLoopback("a", "b")
	reg := NewRegistry(lb, "a", "b")
	ctx := context.Background()

	if got := reg.Ready(); len(got) != 2 {
		t.Fatalf("initial ready = %v, want both", got)
	}

	// One failed probe demotes to Draining, not Dead.
	lb.Node("a").Kill()
	reg.ProbeOnce(ctx)
	if s := reg.State("a"); s != Draining {
		t.Fatalf("after 1 failed probe state = %v, want Draining", s)
	}
	reg.ProbeOnce(ctx)
	reg.ProbeOnce(ctx)
	if s := reg.State("a"); s != Dead {
		t.Fatalf("after 3 failed probes state = %v, want Dead", s)
	}
	if got := reg.Ready(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("ready = %v, want [b]", got)
	}

	// Draining node refuses probes but b staying up keeps it Ready.
	lb.Node("b").SetDraining(true)
	reg.ProbeOnce(ctx)
	if s := reg.State("b"); s != Draining {
		t.Fatalf("draining node state = %v, want Draining", s)
	}
	if got := reg.Ready(); len(got) != 0 {
		t.Fatalf("ready = %v, want none", got)
	}

	// Recovery: a successful probe restores Ready from either state.
	lb.Node("b").SetDraining(false)
	reg.ProbeOnce(ctx)
	if s := reg.State("b"); s != Ready {
		t.Fatalf("recovered node state = %v, want Ready", s)
	}

	// MarkFailed demotes immediately.
	reg.MarkFailed("b")
	if s := reg.State("b"); s != Dead {
		t.Fatalf("after MarkFailed state = %v, want Dead", s)
	}
	if s := reg.State("nope"); s != Dead {
		t.Fatalf("unknown worker state = %v, want Dead", s)
	}
}

func TestRegistryRunLoop(t *testing.T) {
	lb := NewLoopback("a")
	reg := NewRegistry(lb, "a")
	reg.MarkFailed("a")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); reg.Run(ctx, 5*time.Millisecond) }()
	deadline := time.After(2 * time.Second)
	for reg.State("a") != Ready {
		select {
		case <-deadline:
			t.Fatal("probe loop never revived the worker")
		case <-time.After(2 * time.Millisecond):
		}
	}
	cancel()
	<-done
}

// TestCoordinatorMatchesLocal is the heart of the subsystem: a run
// sharded across 3 loopback workers is bit-identical to the local pool.
func TestCoordinatorMatchesLocal(t *testing.T) {
	run := testRun()
	want := localResult(t, run)

	lb := NewLoopback("a", "b", "c")
	reg := NewRegistry(lb, "a", "b", "c")
	co := NewCoordinator(lb, reg, Config{})

	parts, err := co.RunChunkRange(context.Background(), run, 0, run.Plan().Chunks())
	if err != nil {
		t.Fatalf("RunChunkRange: %v", err)
	}
	var got mathx.Running
	for _, p := range parts {
		got.Merge(p)
	}
	if got != want {
		t.Fatalf("distributed stats differ from local:\n got %+v\nwant %+v", got, want)
	}
	// One shard per ready worker, dealt round-robin: each worker
	// computes exactly one.
	for _, a := range []string{"a", "b", "c"} {
		if n := lb.Node(a).Shards(); n != 1 {
			t.Errorf("worker %s computed %d shards, want 1", a, n)
		}
	}
}

// TestCoordinatorViaExecutorContext checks the sim-side wiring: a
// RunKernelCtx under WithExecutor routes through the coordinator and
// still equals the plain local run.
func TestCoordinatorViaExecutorContext(t *testing.T) {
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
		t.Fatalf("executor-context stats differ from local:\n got %+v\nwant %+v", got, want)
	}
}

// TestRetryReassignsFromFailedWorker injects transient failures on one
// worker and expects its shards to land elsewhere with the same result.
func TestRetryReassignsFromFailedWorker(t *testing.T) {
	run := testRun()
	want := localResult(t, run)

	lb := NewLoopback("a", "b", "c")
	lb.Node("a").FailNext(10) // every attempt at a fails
	reg := NewRegistry(lb, "a", "b", "c")
	co := NewCoordinator(lb, reg, Config{})

	before := metShards.With("reassigned").Value()
	got, err := distResult(context.Background(), co, run)
	if err != nil {
		t.Fatalf("run with failing worker: %v", err)
	}
	if got != want {
		t.Fatalf("stats after reassignment differ from local:\n got %+v\nwant %+v", got, want)
	}
	if lb.Node("a").Shards() != 0 {
		t.Fatalf("failing worker completed %d shards, want 0", lb.Node("a").Shards())
	}
	if after := metShards.With("reassigned").Value(); after <= before {
		t.Fatalf("reassigned counter did not move (%d -> %d)", before, after)
	}
	if reg.State("a") != Dead {
		t.Fatalf("failing worker state = %v, want Dead", reg.State("a"))
	}
}

// TestWorkerKilledMidRun kills a worker while shards are in flight; the
// coordinator must reroute and still produce the exact local result.
func TestWorkerKilledMidRun(t *testing.T) {
	run := testRun()
	want := localResult(t, run)

	lb := NewLoopback("a", "b", "c")
	lb.Node("a").SetDelay(20 * time.Millisecond) // ensure kill lands mid-shard
	reg := NewRegistry(lb, "a", "b", "c")
	co := NewCoordinator(lb, reg, Config{})

	go func() {
		time.Sleep(5 * time.Millisecond)
		lb.Node("a").Kill()
	}()
	got, err := distResult(context.Background(), co, run)
	if err != nil {
		t.Fatalf("run with killed worker: %v", err)
	}
	if got != want {
		t.Fatalf("stats after worker death differ from local:\n got %+v\nwant %+v", got, want)
	}
}

// TestLocalFallback runs with every worker dead and LocalFallback on;
// the fallback shards count their trials once.
func TestLocalFallback(t *testing.T) {
	run := testRun()
	want := localResult(t, run)

	lb := NewLoopback("a")
	lb.Node("a").Kill()
	reg := NewRegistry(lb, "a")
	reg.MarkFailed("a")
	co := NewCoordinator(lb, reg, Config{LocalFallback: true, LocalWorkers: 2})

	tracker := obs.NewTracker()
	got, err := distResult(obs.WithProgress(context.Background(), tracker), co, run)
	if err != nil {
		t.Fatalf("run with local fallback: %v", err)
	}
	if got != want {
		t.Fatalf("fallback stats differ from local:\n got %+v\nwant %+v", got, want)
	}
	if s := tracker.Snapshot(); s.Done != int64(run.Trials) || s.Total != int64(run.Trials) {
		t.Fatalf("fallback progress %d/%d, want %d/%d", s.Done, s.Total, run.Trials, run.Trials)
	}
}

// TestAllWorkersDeadFailsCleanly: no fallback → a clear terminal error,
// not a hang or a partial result.
func TestAllWorkersDeadFailsCleanly(t *testing.T) {
	run := testRun()
	lb := NewLoopback("a")
	lb.Node("a").Kill()
	reg := NewRegistry(lb, "a")
	co := NewCoordinator(lb, reg, Config{})

	_, err := distResult(context.Background(), co, run)
	if err == nil {
		t.Fatal("run succeeded with every worker dead")
	}
	if !strings.Contains(err.Error(), "failed after 4 attempts") {
		t.Fatalf("error %q does not name the attempt budget", err)
	}
}

func TestCoordinatorHonoursCancellation(t *testing.T) {
	run := testRun()
	lb := NewLoopback("a")
	lb.Node("a").SetDelay(10 * time.Second)
	reg := NewRegistry(lb, "a")
	co := NewCoordinator(lb, reg, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	start := time.Now()
	_, err := distResult(ctx, co, run)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation did not interrupt the in-flight shard")
	}
}

func TestExecuteShardValidates(t *testing.T) {
	ctx := context.Background()
	_, err := ExecuteShard(ctx, "w", 1, ShardRequest{Kernel: "coop.ber", Seed: 1, Trials: sim.ChunkSize, ChunkLo: 0, ChunkHi: 1, ChunkSize: 1024})
	if err == nil || !strings.Contains(err.Error(), "chunk size") {
		t.Fatalf("chunk-size mismatch not rejected: %v", err)
	}
	_, err = ExecuteShard(ctx, "w", 1, ShardRequest{Kernel: "no.such", Seed: 1, Trials: sim.ChunkSize, ChunkLo: 0, ChunkHi: 1, ChunkSize: sim.ChunkSize})
	if err == nil || !strings.Contains(err.Error(), "unknown kernel") {
		t.Fatalf("unknown kernel not rejected: %v", err)
	}
}

// TestSnapshotRoundTrip pins the wire-format exactness claim: a Running
// that crossed Snapshot/FromSnapshot merges identically to the original.
func TestSnapshotRoundTrip(t *testing.T) {
	run := testRun()
	mc := sim.MonteCarlo{Seed: run.Seed, Workers: 1}
	parts, err := mc.RunKernelChunksCtx(context.Background(), run.Kernel, run.Params, run.Trials, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	res := ShardResult{Partials: make([]mathx.RunningSnapshot, len(parts))}
	for i := range parts {
		res.Partials[i] = parts[i].Snapshot()
	}
	back := res.Runnings()
	for i := range parts {
		if back[i] != parts[i] {
			t.Fatalf("chunk %d changed across snapshot round-trip", i)
		}
	}
}

// adaptiveStop fires once the prefix holds at least n trials — the
// cluster tests pin stopping behavior without statistical noise.
type adaptiveStop struct{ n int64 }

func (s adaptiveStop) Done(prefix mathx.Running) bool { return prefix.N() >= s.n }

// TestAdaptiveRunAcrossCluster is the distributed determinism contract
// for the adaptive tier: an adaptive run sharded over a 3-worker
// loopback — with one worker killed mid-campaign — must produce the
// same statistics, the same realized trace, and the same replay as a
// plain serial run. Worker death moves shards, never results.
func TestAdaptiveRunAcrossCluster(t *testing.T) {
	kernel := "coop.ber"
	params := map[string]float64{"mt": 2, "mr": 2, "snr_db": 6, "bits": 16}
	budget := 12 * sim.ChunkSize
	stop := adaptiveStop{n: 5 * sim.ChunkSize}

	serial, err := sim.MonteCarlo{Seed: 9}.RunAdaptiveCtx(context.Background(), kernel, params, budget, stop)
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Trace.Stopped || serial.Trace.Chunks() != 8 {
		t.Fatalf("unexpected serial trace %+v; the test wants a mid-budget stop", serial.Trace)
	}

	lb := NewLoopback("w1", "w2", "w3")
	reg := NewRegistry(lb, "w1", "w2", "w3")
	co := NewCoordinator(lb, reg, Config{})
	ctx := sim.WithExecutor(context.Background(), co)

	// Kill one worker before the run: its shards must be reassigned and
	// the rounds still merge to the serial result.
	lb.Node("w2").Kill()
	dist, err := sim.MonteCarlo{Seed: 9}.RunAdaptiveCtx(ctx, kernel, params, budget, stop)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Stats != serial.Stats {
		t.Fatalf("distributed adaptive stats differ:\n got %+v\nwant %+v", dist.Stats, serial.Stats)
	}
	if dist.Trace.Trials != serial.Trace.Trials || dist.Trace.Chunks() != serial.Trace.Chunks() {
		t.Fatalf("distributed trace %+v != serial trace %+v", dist.Trace, serial.Trace)
	}

	// Replaying the recorded trace across the (degraded) cluster is
	// bit-identical too.
	rep, err := sim.MonteCarlo{Seed: 9}.RunTraceCtx(ctx, kernel, params, dist.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats != serial.Stats {
		t.Fatalf("cluster replay stats differ:\n got %+v\nwant %+v", rep.Stats, serial.Stats)
	}
	if lb.Node("w1").Shards()+lb.Node("w3").Shards() == 0 {
		t.Fatal("no live worker computed any shard")
	}
}

// TestCoordinatorRunChunkRange exercises the round-granular entry
// point directly: partials for [lo, hi) must match the local chunk
// computation and reject bad ranges.
func TestCoordinatorRunChunkRange(t *testing.T) {
	run := testRun()
	lb := NewLoopback("a", "b")
	reg := NewRegistry(lb, "a", "b")
	co := NewCoordinator(lb, reg, Config{})

	mc := sim.MonteCarlo{Seed: run.Seed}
	want, err := mc.RunKernelChunksCtx(context.Background(), run.Kernel, run.Params, run.Trials, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := co.RunChunkRange(context.Background(), run, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d partials, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("chunk %d partial differs: %+v vs %+v", 1+i, got[i], want[i])
		}
	}
	for _, r := range [][2]int{{-1, 2}, {0, 99}, {3, 3}, {4, 2}} {
		if _, err := co.RunChunkRange(context.Background(), run, r[0], r[1]); err == nil {
			t.Errorf("range %v accepted", r)
		}
	}
}
