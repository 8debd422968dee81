package coop

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
)

// batchIdentityConfigs sweeps the impairment space the transport
// branches on: every antenna geometry, multi-bit constellations, finite
// and ideal local links, forwarding noise and channel coherence.
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
		Config{Mt: 2, Mr: 3, B: 1, SNRPerBit: 8, ForwardSNR: 14, Bits: 240, Seed: 10},
		Config{Mt: 3, Mr: 3, B: 2, SNRPerBit: 12, LocalSNRPerBit: 8, ForwardSNR: 11, Bits: 300, Seed: 11},
		Config{Mt: 2, Mr: 2, B: 1, SNRPerBit: 8, CoherenceBlocks: 4, Bits: 400, Seed: 12},
		Config{Mt: 4, Mr: 4, B: 2, SNRPerBit: 10, LocalSNRPerBit: 7, ForwardSNR: 13, CoherenceBlocks: 3, Bits: 600, Seed: 13},
	)
	return cfgs
}

// TestTransportBatchMatchesScalar is the tentpole identity: the SoA
// engine behind RunWith must reproduce the per-block scalar oracle's
// Result — the BER, not an approximation of it — for every impairment
// combination and several seeds each.
func TestTransportBatchMatchesScalar(t *testing.T) {
	wsB, wsS := NewWorkspace(), NewWorkspace()
	for _, cfg := range batchIdentityConfigs() {
		for ds := int64(0); ds < 3; ds++ {
			c := cfg
			c.Seed += ds * 1000003
			name := fmt.Sprintf("%dx%d/b=%d/loc=%v/fwd=%v/coh=%d/seed=%d",
				c.Mt, c.Mr, c.B, c.LocalSNRPerBit, c.ForwardSNR, c.CoherenceBlocks, c.Seed)
			got, err := RunWith(wsB, c)
			if err != nil {
				t.Fatalf("%s: batch: %v", name, err)
			}
			want, err := RunScalarWith(wsS, c)
			if err != nil {
				t.Fatalf("%s: scalar: %v", name, err)
			}
			if got != want {
				t.Fatalf("%s: batch %+v differs from scalar %+v", name, got, want)
			}
		}
	}
}

// TestTransportBatchParallelWorkers runs the batch engine on every
// impairment combination from several goroutines at once (one
// workspace per worker, as the pool hands out) and checks each against
// the scalar oracle — under -race this also proves the SoA scratch
// holds no hidden shared state.
func TestTransportBatchParallelWorkers(t *testing.T) {
	cfgs := batchIdentityConfigs()
	want := make([]Result, len(cfgs))
	ws := NewWorkspace()
	for i, cfg := range cfgs {
		r, err := RunScalarWith(ws, cfg)
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
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
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
		{0, 0.0390625, 0.04296875},
		{1, 0.0390625, 0.03515625},
		{2, 0.0546875, 0.05078125},
		{3, 0.05859375, 0.0390625},
		{-7, 0.02734375, 0.0390625},
		{89482311, 0.0390625, 0.04296875},
		{1 << 40, 0.05078125, 0.03125},
		{-1 << 62, 0.05078125, 0.0390625},
	}
	ws, wsS := NewWorkspace(), NewWorkspace()
	for _, p := range pinned {
		c := Config{Mt: 2, Mr: 2, B: 2, SNRPerBit: 1.5, LocalSNRPerBit: 1.5, ForwardSNR: 6, Bits: 256, Seed: p.seed}
		got, err := RunWith(ws, c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunScalarWith(wsS, c)
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
