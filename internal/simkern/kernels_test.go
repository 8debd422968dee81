package simkern

import (
	"context"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/cellfree"
	"repro/internal/coop"
	"repro/internal/mathx"
	"repro/internal/multihop"
	"repro/internal/sim"
)

// The per-trial scalar oracles are registered for tests only: golden
// runs cross-check the batch kernels against them through the same
// registry plumbing (serial, parallel and cluster alike), but they are
// never served.
func init() {
	sim.RegisterKernel("coop.ber.scalar", coopBERScalar)
	sim.RegisterKernel("multihop.ber.scalar", multihopBERScalar)
}

// coopBERScalar runs coop.ber's trials on the per-block scalar engine,
// seeding each exactly as the batch kernel does.
func coopBERScalar(params map[string]float64) (sim.TrialFunc, error) {
	cfg, err := coopConfig(params)
	if err != nil {
		return nil, err
	}
	return func(seeds []int64, vals []float64) {
		ws := coop.GetWorkspace()
		defer coop.PutWorkspace(ws)
		c := cfg
		for i, s := range seeds {
			c.Seed = s
			r, err := coop.RunScalarWith(ws, c)
			if err != nil {
				panic(err)
			}
			vals[i] = r.BER
		}
	}, nil
}

// multihopBERScalar is coopBERScalar for multihop.ber: every hop
// crosses coop's scalar engine.
func multihopBERScalar(params map[string]float64) (sim.TrialFunc, error) {
	cfg, err := multihopConfig(params)
	if err != nil {
		return nil, err
	}
	return func(seeds []int64, vals []float64) {
		ws := multihop.GetWorkspace()
		defer multihop.PutWorkspace(ws)
		c := cfg
		for i, s := range seeds {
			c.Seed = s
			r, err := multihop.RunScalarWith(ws, c)
			if err != nil {
				panic(err)
			}
			vals[i] = r.EndToEndBER
		}
	}, nil
}

// TestCoopKernelMatchesSequentialRuns checks the hop kernel: a batch
// of coop.ber trials must equal a hand loop of coop.RunWith calls
// seeded from the same stream — the contract the simkern registration
// and the cluster shard executor distribute.
func TestCoopKernelMatchesSequentialRuns(t *testing.T) {
	params := map[string]float64{"mt": 2, "mr": 2, "snr_db": 9.5, "local_db": 10, "bits": 96}
	const n = 40
	batch, err := sim.NewKernelBatch("coop.ber", params)
	if err != nil {
		t.Fatal(err)
	}
	got := batch(mathx.NewRand(77), n)

	cfg, err := coopConfig(params)
	if err != nil {
		t.Fatal(err)
	}
	ws := coop.NewWorkspace()
	rng := mathx.NewRand(77)
	var want mathx.Running
	for i := 0; i < n; i++ {
		cfg.Seed = rng.Int63()
		r, err := coop.RunWith(ws, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want.Add(r.BER)
	}
	if got != want {
		t.Fatalf("coop.ber batch %+v differs from sequential runs %+v", got, want)
	}
}

// TestMultihopKernelMatchesSequentialRuns is the route kernel's
// contract: n trials fold to exactly the statistics of n sequential
// multihop.RunWith calls drawing per-trial seeds from the same stream,
// and a zero-trial batch is an empty fold.
func TestMultihopKernelMatchesSequentialRuns(t *testing.T) {
	params := map[string]float64{"hops": 3, "mt": 2, "mr": 1, "snr_db": 9, "bits": 240}
	const n = 50
	const seed = 314159
	batch, err := sim.NewKernelBatch("multihop.ber", params)
	if err != nil {
		t.Fatal(err)
	}
	got := batch(mathx.NewRand(seed), n)

	cfg, err := multihopConfig(params)
	if err != nil {
		t.Fatal(err)
	}
	ws := multihop.NewWorkspace()
	rng := mathx.NewRand(seed)
	var want mathx.Running
	for i := 0; i < n; i++ {
		cfg.Seed = rng.Int63()
		r, err := multihop.RunWith(ws, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want.Add(r.EndToEndBER)
	}
	if got.Snapshot() != want.Snapshot() {
		t.Fatalf("multihop.ber batch %+v != sequential fold %+v", got.Snapshot(), want.Snapshot())
	}
	if empty := batch(mathx.NewRand(seed), 0); empty.N() != 0 {
		t.Fatalf("zero-trial batch folded %d trials", empty.N())
	}
}

// TestChunkSplitMatchesSerialBatch: for every kernel this package
// registers, a one-chunk range evaluated by one worker and split into
// trial blocks across two equals the serial NewKernelBatch loop over
// the chunk's stream bit for bit. The range is the short tail chunk of
// a two-chunk plan, with small payloads, so the check stays cheap.
func TestChunkSplitMatchesSerialBatch(t *testing.T) {
	plan := sim.Plan{Seed: 11, Trials: sim.ChunkSize + 96}
	for _, name := range sim.Kernels() {
		var params map[string]float64
		switch {
		case strings.HasPrefix(name, "coop."):
			params = map[string]float64{"bits": 32}
		case strings.HasPrefix(name, "multihop."):
			params = map[string]float64{"hops": 3, "bits": 60}
		case strings.HasPrefix(name, "cellfree."):
			params = map[string]float64{"l": 10, "k": 6, "tau_p": 3}
		default:
			continue
		}
		batch, err := sim.NewKernelBatch(name, params)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := batch(mathx.NewRand(plan.ChunkSeed(1)), plan.ChunkTrials(1))
		for _, workers := range []int{1, 2} {
			mc := sim.MonteCarlo{Seed: plan.Seed, Workers: workers}
			parts, err := mc.RunKernelChunksCtx(context.Background(), name, params, plan.Trials, 1, 2)
			if err != nil {
				t.Fatalf("%s, workers=%d: %v", name, workers, err)
			}
			if parts[0].Snapshot() != want.Snapshot() {
				t.Errorf("%s, workers=%d: chunk %+v, serial batch %+v", name, workers, parts[0].Snapshot(), want.Snapshot())
			}
		}
	}
}

// TestTrialKernelsAllocationFree: a warm block of each physics'
// trials allocates nothing — workspaces and the cellfree quantile
// scratch come from pools.
func TestTrialKernelsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Put items at random")
	}
	// A collection empties sync.Pools; keep it from landing mid-count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name   string
		kernel sim.KernelFunc
		params map[string]float64
	}{
		{"coop.ber", coopBERKernel, map[string]float64{"local_db": 10}},
		{"multihop.ber", multihopBERKernel, map[string]float64{"hops": 3}},
		{"cellfree.se.mmse", cellfreeSE(cellfree.CombinerMMSE), map[string]float64{"l": 10, "k": 6, "tau_p": 3}},
	} {
		trial, err := tc.kernel(tc.params)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		seeds := mathx.DeriveSeeds(5, 16)
		vals := make([]float64, len(seeds))
		trial(seeds, vals)
		if allocs := testing.AllocsPerRun(10, func() { trial(seeds, vals) }); allocs != 0 {
			t.Errorf("%s: a warm block of %d trials allocates %v times", tc.name, len(seeds), allocs)
		}
	}
}

func TestKernelsRegistered(t *testing.T) {
	for _, name := range []string{"coop.ber", "multihop.ber", "cellfree.se", "cellfree.se.mmse"} {
		if _, err := sim.NewKernelBatch(name, nil); err != nil {
			t.Errorf("kernel %q not buildable with defaults: %v", name, err)
		}
	}
}

func TestKernelRejectsBadParams(t *testing.T) {
	cases := []struct {
		kernel string
		params map[string]float64
	}{
		{"coop.ber", map[string]float64{"mt": 2.5}},
		{"coop.ber", map[string]float64{"mt": 9}},
		{"coop.ber", map[string]float64{"bits": -1}},
		{"multihop.ber", map[string]float64{"hops": 0}},
		{"multihop.ber", map[string]float64{"b": 99}},
		{"cellfree.se", map[string]float64{"l": 0}},
		{"cellfree.se", map[string]float64{"l": 2.5}},
		{"cellfree.se", map[string]float64{"tau_c": 4, "tau_p": 4}},
		{"cellfree.se.mmse", map[string]float64{"q": 1.5}},
		{"cellfree.se.mmse", map[string]float64{"n": 128}},
	}
	for _, tc := range cases {
		if _, err := sim.NewKernelBatch(tc.kernel, tc.params); err == nil {
			t.Errorf("%s with %v: want build error, got nil", tc.kernel, tc.params)
		}
	}
}

// TestKernelDeterministic pins the property the distributed executor
// relies on: rebuilding a batch from (kernel, params) and replaying the
// same rng stream yields bit-identical statistics.
func TestKernelDeterministic(t *testing.T) {
	params := map[string]float64{"mt": 2, "mr": 2, "snr_db": 6, "bits": 32}
	run := func() mathx.Running {
		batch, err := sim.NewKernelBatch("coop.ber", params)
		if err != nil {
			t.Fatal(err)
		}
		return batch(mathx.NewRand(42), 50)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different stats: %+v vs %+v", a, b)
	}
	if a.N() != 50 {
		t.Fatalf("N = %d, want 50", a.N())
	}
	if a.Mean() <= 0 || a.Mean() >= 0.5 {
		t.Fatalf("BER mean %v outside (0, 0.5)", a.Mean())
	}
}

// TestCellfreeKernelOrdering checks the cellfree kernels end to end
// through the registry: both are deterministic, both consume identical
// rng streams, and on those shared snapshots the MMSE median SE
// dominates MR's — the ordering the ext-cellfree report asserts.
func TestCellfreeKernelOrdering(t *testing.T) {
	params := map[string]float64{"l": 10, "k": 6, "tau_p": 3}
	run := func(kernel string) mathx.Running {
		batch, err := sim.NewKernelBatch(kernel, params)
		if err != nil {
			t.Fatal(err)
		}
		return batch(mathx.NewRand(7), 20)
	}
	mr, mm := run("cellfree.se"), run("cellfree.se.mmse")
	if mr != run("cellfree.se") {
		t.Fatal("cellfree.se not deterministic")
	}
	if mm != run("cellfree.se.mmse") {
		t.Fatal("cellfree.se.mmse not deterministic")
	}
	if mr.N() != 20 || mm.N() != 20 {
		t.Fatalf("N = %d/%d, want 20", mr.N(), mm.N())
	}
	if !(mr.Mean() > 0) {
		t.Fatalf("MR median SE %v not positive", mr.Mean())
	}
	if mm.Mean() < mr.Mean() {
		t.Fatalf("MMSE median SE %v below MR %v on shared snapshots", mm.Mean(), mr.Mean())
	}
}

// TestMultihopBatchMatchesScalar pins the SoA tier's contract at the
// registry level: multihop.ber, multihop.ber.batch and the scalar
// oracle produce bit-identical statistics from the same rng stream, so
// swapping engines never moves a golden.
func TestMultihopBatchMatchesScalar(t *testing.T) {
	params := map[string]float64{"hops": 3, "mt": 2, "mr": 2, "snr_db": 8, "bits": 240}
	run := func(kernel string) mathx.Running {
		batch, err := sim.NewKernelBatch(kernel, params)
		if err != nil {
			t.Fatal(err)
		}
		return batch(mathx.NewRand(99), 40)
	}
	batch, scalar, def := run("multihop.ber.batch"), run("multihop.ber.scalar"), run("multihop.ber")
	if batch != scalar {
		t.Fatalf("multihop.ber.batch %+v != multihop.ber.scalar %+v", batch, scalar)
	}
	if batch != def {
		t.Fatalf("multihop.ber.batch %+v != multihop.ber %+v", batch, def)
	}
	if batch.N() != 40 {
		t.Fatalf("N = %d, want 40", batch.N())
	}
}

// TestKernelCapsAdvertised: the capability flags the serving tier
// exposes over GET /v1/kernels match what each registration supports.
func TestKernelCapsAdvertised(t *testing.T) {
	for name, want := range map[string]struct {
		batch, adaptive, bernoulli bool
	}{
		"coop.ber":           {true, true, false},
		"coop.ber.batch":     {true, true, false},
		"coop.ber.adaptive":  {true, true, true},
		"multihop.ber":       {true, true, false},
		"multihop.ber.batch": {true, true, true},
		"cellfree.se":        {false, true, false},
		"cellfree.se.mmse":   {false, true, false},
	} {
		caps, ok := sim.KernelCapsFor(name)
		if !ok {
			t.Errorf("kernel %q unregistered", name)
			continue
		}
		if caps.Batch != want.batch || caps.Adaptive != want.adaptive || (caps.BernoulliUnits != nil) != want.bernoulli {
			t.Errorf("%s caps = {batch %v, adaptive %v, bernoulli %v}, want %+v",
				name, caps.Batch, caps.Adaptive, caps.BernoulliUnits != nil, want)
		}
	}
}

// TestBernoulliUnits: the units functions convert params to the bit
// counts the Wilson stopping rule divides by.
func TestBernoulliUnits(t *testing.T) {
	caps, _ := sim.KernelCapsFor("coop.ber.adaptive")
	if got := caps.BernoulliUnits(map[string]float64{"bits": 128}); got != 128 {
		t.Errorf("coop bits(128) = %g", got)
	}
	if got := caps.BernoulliUnits(nil); got != 64 {
		t.Errorf("coop bits(default) = %g, want 64", got)
	}
	mcaps, _ := sim.KernelCapsFor("multihop.ber.batch")
	// multihop rounds bits up to a multiple of 6*b codewords.
	if got := mcaps.BernoulliUnits(map[string]float64{"bits": 100, "b": 1}); got != 102 {
		t.Errorf("multihop bits(100, b=1) = %g, want 102", got)
	}
}
