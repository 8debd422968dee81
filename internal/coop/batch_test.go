package coop

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mathx"
)

// batchIdentityConfigs sweeps the impairment space the transport
// branches on: every antenna geometry, multi-bit constellations, and
// finite and ideal local links.
func batchIdentityConfigs() []Config {
	var cfgs []Config
	for _, geom := range [][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {3, 2}, {4, 4}} {
		cfgs = append(cfgs, Config{
			Mt: geom[0], Mr: geom[1], B: 1, SNRPerBit: 8, Bits: 240, Seed: 4,
		})
	}
	cfgs = append(cfgs,
		Config{Mt: 2, Mr: 2, B: 2, SNRPerBit: 12, Bits: 256, Seed: 5},
		Config{Mt: 3, Mr: 1, B: 4, SNRPerBit: 18, Bits: 480, Seed: 6},
		Config{Mt: 2, Mr: 2, B: 1, SNRPerBit: 8, LocalSNRPerBit: 9, Bits: 240, Seed: 7},
		Config{Mt: 4, Mr: 2, B: 2, SNRPerBit: 10, LocalSNRPerBit: 6, Bits: 360, Seed: 8},
		Config{Mt: 2, Mr: 2, B: 1, SNRPerBit: 8, LocalSNRPerBit: math.Inf(1), Bits: 240, Seed: 9},
		Config{Mt: 2, Mr: 3, B: 1, SNRPerBit: 8, Bits: 240, Seed: 10},
		Config{Mt: 3, Mr: 3, B: 2, SNRPerBit: 12, LocalSNRPerBit: 8, Bits: 300, Seed: 11},
		Config{Mt: 4, Mr: 4, B: 2, SNRPerBit: 10, LocalSNRPerBit: 7, Bits: 600, Seed: 13},
		// Eight tiles with every tape on: the draw pass's one fill per
		// tile must continue the stream across tile boundaries.
		Config{Mt: 2, Mr: 3, B: 1, SNRPerBit: 8, LocalSNRPerBit: 9, Bits: 2400, Seed: 14},
		// BPSK tiles whose block count is not a multiple of four: the
		// vector kernels' groups end early and the loops take the tail
		// (243, 123 and 61 blocks; 512+512+6 blocks over three tiles).
		Config{Mt: 1, Mr: 1, B: 1, SNRPerBit: 8, Bits: 243, Seed: 15},
		Config{Mt: 2, Mr: 2, B: 1, SNRPerBit: 8, Bits: 246, Seed: 16},
		Config{Mt: 3, Mr: 3, B: 1, SNRPerBit: 8, Bits: 183, Seed: 17},
		Config{Mt: 1, Mr: 1, B: 1, SNRPerBit: 8, Bits: 1030, Seed: 18},
	)
	// The benchmark workloads' shapes: fanout's ext-coopber cells (1x1
	// and 2x2 at 0, 4, 8 and 12 dB, 128 bits) and tail-ber's coop cells
	// (32 bits).
	for _, geom := range [][2]int{{1, 1}, {2, 2}} {
		for _, db := range []float64{0, 4, 8, 12} {
			cfgs = append(cfgs, Config{
				Mt: geom[0], Mr: geom[1], B: 1, SNRPerBit: math.Pow(10, db/10), Bits: 128, Seed: 19,
			})
		}
	}
	for _, c := range [][3]float64{{2, 2, 5}, {2, 2, 10}, {1, 1, 15}} {
		cfgs = append(cfgs, Config{
			Mt: int(c[0]), Mr: int(c[1]), B: 1, SNRPerBit: math.Pow(10, c[2]/10), Bits: 32, Seed: 20,
		})
	}
	return cfgs
}

// pureGoEnv marks a test binary re-executed under GODEBUG=cpu.avx2=off.
const pureGoEnv = "COOP_TEST_PURE_GO"

// TestTransportBatchMatchesScalar is the tentpole identity: the SoA
// engine behind RunWith and TransportInto must reproduce the per-block
// reference engine's Result — the BER, not an approximation of it — and
// its decoded bits, for every impairment combination and several seeds
// each. The second hop of every case relays the first hop's noisy
// output, as a multihop route does, so the identity also holds on a
// source that is not RunWith's own freshly drawn bits.
//
// pureGo=false runs the engine as this process does. Where
// mathx.HasAVX2 is true, pureGo=true re-executes the test under
// GODEBUG=cpu.avx2=off, so the seed, the Gaussian fill and every lane
// pass take their pure-Go loops; elsewhere both run in this process.
func TestTransportBatchMatchesScalar(t *testing.T) {
	t.Run("pureGo=false", checkTransportMatchesScalar)
	t.Run("pureGo=true", func(t *testing.T) {
		if !mathx.HasAVX2() {
			checkTransportMatchesScalar(t)
			return
		}
		if os.Getenv(pureGoEnv) != "" {
			t.Fatalf("GODEBUG=%q left mathx.HasAVX2 on", os.Getenv("GODEBUG"))
		}
		args := []string{"-test.run=^TestTransportBatchMatchesScalar$/^pureGo=true$", "-test.count=1"}
		if testing.Short() {
			args = append(args, "-test.short")
		}
		cmd := exec.Command(os.Args[0], args...)
		godebug := strings.TrimPrefix(os.Getenv("GODEBUG")+",cpu.avx2=off", ",")
		cmd.Env = append(os.Environ(), pureGoEnv+"=1", "GODEBUG="+godebug)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child under GODEBUG=%s: %v\n%s", godebug, err, out)
		}
	})
}

// checkTransportMatchesScalar is TestTransportBatchMatchesScalar on the
// paths this process runs.
func checkTransportMatchesScalar(t *testing.T) {
	ws, sc := NewWorkspace(), newScalarScratch()
	for _, cfg := range batchIdentityConfigs() {
		for ds := int64(0); ds < 3; ds++ {
			c := cfg
			c.Seed += ds * 1000003
			name := fmt.Sprintf("%dx%d/b=%d/loc=%v/seed=%d",
				c.Mt, c.Mr, c.B, c.LocalSNRPerBit, c.Seed)
			got, err := RunWith(ws, c)
			if err != nil {
				t.Fatalf("%s: batch: %v", name, err)
			}
			want, err := runScalar(sc, c)
			if err != nil {
				t.Fatalf("%s: scalar: %v", name, err)
			}
			if got != want {
				t.Fatalf("%s: batch %+v differs from scalar %+v", name, got, want)
			}
			if !bytes.Equal(ws.out, sc.out) {
				t.Fatalf("%s: batch and scalar decoded bits differ", name)
			}

			// Relay hop: the first hop's decoded bits are the source.
			relay := c
			relay.Seed = c.Seed ^ 0x5eed
			src := append([]byte(nil), sc.out...)
			dst, dstS := make([]byte, len(src)), make([]byte, len(src))
			got, err = TransportInto(ws, relay, src, dst)
			if err != nil {
				t.Fatalf("%s: relay batch: %v", name, err)
			}
			want, err = transportScalar(sc, relay, src, dstS)
			if err != nil {
				t.Fatalf("%s: relay scalar: %v", name, err)
			}
			if got != want {
				t.Fatalf("%s: relay batch %+v differs from scalar %+v", name, got, want)
			}
			if !bytes.Equal(dst, dstS) {
				t.Fatalf("%s: relay batch and scalar decoded bits differ", name)
			}
		}
	}
	src := make([]byte, 240)
	if _, err := TransportInto(ws, batchIdentityConfigs()[0], src, make([]byte, len(src)-1)); err == nil {
		t.Error("short dst accepted")
	}
}

// TestTransportBatchParallelWorkers runs the batch engine on every
// impairment combination from several goroutines at once (one
// workspace per worker, as the pool hands out) and checks each against
// the scalar reference engine — under -race this also proves the SoA
// scratch holds no hidden shared state.
func TestTransportBatchParallelWorkers(t *testing.T) {
	cfgs := batchIdentityConfigs()
	want := make([]Result, len(cfgs))
	sc := newScalarScratch()
	for i, cfg := range cfgs {
		r, err := runScalar(sc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > 4 {
		workers = 4
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*workers)
	for range 2 * workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := GetWorkspace()
			defer PutWorkspace(ws)
			for round := 0; round < 3; round++ {
				for i, cfg := range cfgs {
					got, err := RunWith(ws, cfg)
					if err != nil {
						errs <- err
						return
					}
					if got != want[i] {
						errs <- fmt.Errorf("config %d: parallel batch %+v differs from scalar %+v", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRunWithSingleSeedPinned: RunWith seeds once and forks the state
// for the source bits, where the plain shape seeds twice. It must still
// match the two-seed scalar oracle and the per-trial BERs the two-seed
// path produced, recorded here for a fixed seed list. Seeds 0 and
// 89482311 share a stream by math/rand's seed reduction.
func TestRunWithSingleSeedPinned(t *testing.T) {
	pinned := []struct {
		seed          int64
		ber, localBER float64
	}{
		{0, 0.04296875, 0.06640625},
		{1, 0.05078125, 0.05078125},
		{2, 0.05078125, 0.0390625},
		{3, 0.0390625, 0.03515625},
		{-7, 0.046875, 0.046875},
		{89482311, 0.04296875, 0.06640625},
		{1 << 40, 0.05078125, 0.015625},
		{-1 << 62, 0.05078125, 0.05078125},
	}
	ws, sc := NewWorkspace(), newScalarScratch()
	for _, p := range pinned {
		c := Config{Mt: 2, Mr: 2, B: 2, SNRPerBit: 1.5, LocalSNRPerBit: 1.5, Bits: 256, Seed: p.seed}
		got, err := RunWith(ws, c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := runScalar(sc, c)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("seed %d: RunWith %+v, scalar oracle %+v", p.seed, got, want)
		}
		if got.BER != p.ber || got.LocalBER != p.localBER {
			t.Errorf("seed %d: BER %v local %v, pinned %v local %v", p.seed, got.BER, got.LocalBER, p.ber, p.localBER)
		}
	}
}

// TestBatchEngineSpeedup is the batched engine's reason to exist: on
// the 1x1, 2x2 and 4x4 hops of the root BenchmarkCoopScheme it must run
// at least twice as fast as the per-block reference engine. The engines
// alternate call by call and each keeps its fastest call: the two see
// the same host load, and the min discards the calls a load spike hit.
// Each shape is measured for minBudget. While its ratio is below
// target the measurement goes on, up to maxBudget: a neighbour's load
// burst can slow the batched engine's calls for a while, and more
// calls give both minima a chance at a quiet moment. A genuine
// regression still fails, after maxBudget.
func TestBatchEngineSpeedup(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts the engines' speed ratio")
	}
	const (
		target    = 2.0
		minBudget = 600 * time.Millisecond // per shape
		maxBudget = 8 * time.Second        // per shape
	)
	ws, sc := NewWorkspace(), newScalarScratch()
	worst := math.Inf(1)
	for _, geom := range [][2]int{{1, 1}, {2, 2}, {4, 4}} {
		cfg := Config{Mt: geom[0], Mr: geom[1], B: 1, SNRPerBit: 10, Bits: 6000, Seed: 1}
		batch := func() error { _, err := RunWith(ws, cfg); return err }
		scalar := func() error { _, err := runScalar(sc, cfg); return err }
		// Warm both scratches, then start from a collected heap as
		// testing.Benchmark does.
		timeOp(t, batch)
		timeOp(t, scalar)
		runtime.GC()
		batchNs, scalarNs := math.Inf(1), math.Inf(1)
		start := time.Now()
		for {
			scalarNs = math.Min(scalarNs, timeOp(t, scalar))
			batchNs = math.Min(batchNs, timeOp(t, batch))
			el := time.Since(start)
			if el >= maxBudget || (el >= minBudget && scalarNs >= target*batchNs) {
				break
			}
		}
		ratio := scalarNs / batchNs
		t.Logf("%dx%d: scalar %.0f ns/op, batch %.0f ns/op, speedup %.2fx (%v)",
			geom[0], geom[1], scalarNs, batchNs, ratio, time.Since(start).Round(time.Millisecond))
		worst = math.Min(worst, ratio)
	}
	if worst < target {
		t.Errorf("worst batch-over-scalar speedup %.2fx below %.1fx", worst, target)
	}
}

// timeOp returns the wall time of one call to op in nanoseconds.
func timeOp(t *testing.T, op func() error) float64 {
	t.Helper()
	start := time.Now()
	if err := op(); err != nil {
		t.Fatal(err)
	}
	return float64(time.Since(start).Nanoseconds())
}
