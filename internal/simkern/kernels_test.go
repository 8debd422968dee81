package simkern

import (
	"context"
	"math"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/cellfree"
	"repro/internal/coop"
	"repro/internal/mathx"
	"repro/internal/multihop"
	"repro/internal/sim"
)

// GoldenParams exercises the coop.ber impairment branches end to end;
// bits is kept small because the golden plans span several chunks of
// trials. The external golden tests share it.
func GoldenParams() []map[string]float64 {
	return []map[string]float64{
		{"mt": 2, "mr": 2, "snr_db": 6, "bits": 16},
		{"mt": 4, "mr": 2, "b": 2, "snr_db": 10, "local_db": 8, "bits": 24},
		{"mt": 1, "mr": 1, "snr_db": 4, "bits": 16},
	}
}

// TestCoopKernelMatchesSequentialRuns checks the hop kernel: a batch
// of coop.ber trials must equal a hand loop of coop.RunWith calls
// seeded from the same stream — the contract the simkern registration
// and the cluster shard executor distribute. coop's own tests pin
// RunWith to the per-block reference engine.
func TestCoopKernelMatchesSequentialRuns(t *testing.T) {
	const n = 40
	for pi, params := range GoldenParams() {
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
			t.Fatalf("params %d: coop.ber batch %+v differs from sequential runs %+v", pi, got, want)
		}
	}
}

// TestMultihopKernelMatchesSequentialRuns is the route kernel's
// contract: under its physics name and its legacy alias, n trials fold
// to exactly the statistics of n sequential multihop.RunWith calls
// drawing per-trial seeds from the same stream, a zero-trial batch is
// an empty fold, and an adaptive run realizes the same statistics and
// plan under either name.
func TestMultihopKernelMatchesSequentialRuns(t *testing.T) {
	const n = 50
	const seed = 314159
	for _, params := range []map[string]float64{
		{"hops": 3, "mt": 2, "mr": 1, "snr_db": 9, "bits": 240},
		{"hops": 3, "mt": 2, "mr": 2, "snr_db": 8, "bits": 240},
	} {
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
		for _, kernel := range []string{"multihop.ber", "multihop.ber.batch"} {
			batch, err := sim.NewKernelBatch(kernel, params)
			if err != nil {
				t.Fatal(err)
			}
			if got := batch(mathx.NewRand(seed), n); got != want {
				t.Fatalf("%s %v: batch %+v != sequential fold %+v", kernel, params, got.Snapshot(), want.Snapshot())
			}
			if empty := batch(mathx.NewRand(seed), 0); empty.N() != 0 {
				t.Fatalf("%s: zero-trial batch folded %d trials", kernel, empty.N())
			}
		}
		mc := sim.MonteCarlo{Seed: seed, Workers: 2}
		budget := adaptive.Budget{TargetRelCI: 0.3, MaxTrials: 3 * sim.ChunkSize}
		ref, err := adaptive.Run(context.Background(), mc, "multihop.ber", params, budget)
		if err != nil {
			t.Fatal(err)
		}
		got, err := adaptive.Run(context.Background(), mc, "multihop.ber.batch", params, budget)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats != ref.Stats || !reflect.DeepEqual(got.Trace, ref.Trace) {
			t.Fatalf("%v: adaptive multihop.ber.batch %+v %+v, multihop.ber %+v %+v",
				params, got.Stats, got.Trace, ref.Stats, ref.Trace)
		}
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
		{"coop.ber", map[string]float64{"bits": 1<<20 + 1}},
		{"coop.ber", map[string]float64{"snr_db": 4000}},
		{"coop.ber", map[string]float64{"snr_db": math.NaN()}},
		{"coop.ber", map[string]float64{"local_db": math.NaN()}},
		{"multihop.ber", map[string]float64{"bits": 1<<20 + 1}},
		{"multihop.ber", map[string]float64{"snr_db": 4000}},
		{"multihop.ber", map[string]float64{"hops": 0}},
		{"multihop.ber", map[string]float64{"b": 99}},
		{"cellfree.se", map[string]float64{"l": 0}},
		{"cellfree.se", map[string]float64{"l": 2.5}},
		{"cellfree.se", map[string]float64{"tau_c": 4, "tau_p": 4}},
		{"cellfree.se.mmse", map[string]float64{"q": 1.5}},
		{"cellfree.se.mmse", map[string]float64{"n": 128}},
		{"cellfree.se", map[string]float64{"snr_db": 4000}},
		{"cellfree.se", map[string]float64{"snr_db": math.NaN()}},
		{"cellfree.se.mmse", map[string]float64{"shadow_db": 1e300}},
		{"cellfree.se.mmse", map[string]float64{"shadow_db": 100}},
		{"cellfree.se", map[string]float64{"square": 1e308}},
		{"cellfree.se", map[string]float64{"square": math.Inf(1)}},
		{"cellfree.se", map[string]float64{"realizations": 2e9}},
		{"cellfree.se.mmse", map[string]float64{"l": 4096, "n": 64, "k": 4096}},
		{"cellfree.se.mmse", map[string]float64{"l": 1024, "n": 4}},
	}
	for _, tc := range cases {
		if _, err := sim.NewKernelBatch(tc.kernel, tc.params); err == nil {
			t.Errorf("%s with %v: want build error, got nil", tc.kernel, tc.params)
		}
	}
	// The bounds still admit ext-cellfree's full mode and the paper's
	// own scale.
	for _, params := range []map[string]float64{
		{"l": 100, "n": 4, "k": 40, "tau_p": 10, "square": 1000, "realizations": 4},
		{"l": 400, "n": 1, "k": 100, "tau_p": 10, "square": 1000, "realizations": 1000},
		{"l": 100, "n": 4, "k": 100, "tau_p": 10, "square": 1000, "realizations": 1000},
	} {
		for _, kernel := range []string{"cellfree.se", "cellfree.se.mmse"} {
			if _, err := sim.NewKernelBatch(kernel, params); err != nil {
				t.Errorf("%s with %v: %v", kernel, params, err)
			}
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

// TestKernelCapsAdvertised: the registry lists one name per physics —
// what GET /v1/kernels serves — only the BER physics declare Bernoulli
// units, and every legacy name resolves to its physics' entry.
func TestKernelCapsAdvertised(t *testing.T) {
	want := []string{"cellfree.se", "cellfree.se.mmse", "coop.ber", "multihop.ber"}
	if got := sim.Kernels(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("Kernels() = %v, want %v", got, want)
	}
	for name, bernoulli := range map[string]bool{
		"coop.ber": true, "multihop.ber": true, "cellfree.se": false, "cellfree.se.mmse": false,
	} {
		if k, _ := sim.LookupKernel(name); (k.BernoulliUnits != nil) != bernoulli {
			t.Errorf("%s declares Bernoulli units: %v, want %v", name, k.BernoulliUnits != nil, bernoulli)
		}
	}
	params := map[string]float64{"bits": 100}
	for alias, physics := range LegacyAliases() {
		a, ok := sim.LookupKernel(alias)
		p, _ := sim.LookupKernel(physics)
		if !ok || a.BernoulliUnits == nil || a.BernoulliUnits(params) != p.BernoulliUnits(params) {
			t.Errorf("alias %s does not resolve to %s", alias, physics)
		}
	}
}

// LegacyAliases maps each legacy kernel name to its physics name. The
// external golden tests share it.
func LegacyAliases() map[string]string {
	return map[string]string{
		"coop.ber.batch":     "coop.ber",
		"coop.ber.adaptive":  "coop.ber",
		"multihop.ber.batch": "multihop.ber",
	}
}

// TestCoopBitsMatchTransported: coop.ber's Bernoulli units are the bits
// a trial actually transports, Result.Bits, including payloads that
// are not a whole number of STBC blocks (rounded down) or smaller than
// one block (rounded up to one).
func TestCoopBitsMatchTransported(t *testing.T) {
	k, _ := sim.LookupKernel("coop.ber")
	for mt := 1; mt <= 4; mt++ {
		for _, b := range []int{1, 2, 4} {
			for _, bits := range []int{1, 32, 33, 64} {
				params := map[string]float64{"mt": float64(mt), "mr": 2, "b": float64(b), "bits": float64(bits)}
				cfg, err := coopConfig(params)
				if err != nil {
					t.Fatal(err)
				}
				res, err := coop.RunWith(coop.NewWorkspace(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := k.BernoulliUnits(params); got != float64(res.Bits) {
					t.Errorf("mt=%d b=%d bits=%d: units %g, transported %d", mt, b, bits, got, res.Bits)
				}
			}
		}
	}
}

// TestBernoulliUnits: the units functions convert params to the bit
// counts the Wilson stopping rule divides by.
func TestBernoulliUnits(t *testing.T) {
	k, _ := sim.LookupKernel("coop.ber")
	if got := k.BernoulliUnits(map[string]float64{"bits": 128}); got != 128 {
		t.Errorf("coop bits(128) = %g", got)
	}
	if got := k.BernoulliUnits(nil); got != 64 {
		t.Errorf("coop bits(default) = %g, want 64", got)
	}
	mk, _ := sim.LookupKernel("multihop.ber")
	// multihop rounds bits up to a multiple of 6*b codewords.
	if got := mk.BernoulliUnits(map[string]float64{"bits": 100, "b": 1}); got != 102 {
		t.Errorf("multihop bits(100, b=1) = %g, want 102", got)
	}
}
