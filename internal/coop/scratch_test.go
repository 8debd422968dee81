package coop

import (
	"testing"
)

// TestRunWithMatchesRun pins the workspace path to the pooled one: the
// same config must yield identical results whether the workspace is
// fresh, pooled, or reused across differently shaped runs (buffer reuse
// must never leak state between runs).
func TestRunWithMatchesRun(t *testing.T) {
	cfgs := []Config{
		{Mt: 2, Mr: 2, B: 2, SNRPerBit: 10, Bits: 1200, Seed: 7},
		{Mt: 4, Mr: 3, B: 4, SNRPerBit: 8, LocalSNRPerBit: 12, Bits: 3000, Seed: 11},
		{Mt: 1, Mr: 1, B: 1, SNRPerBit: 6, Bits: 600, Seed: 3},
	}
	want := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	// One workspace reused across all shapes, twice over: results must
	// not depend on what ran before.
	ws := NewWorkspace()
	for pass := 0; pass < 2; pass++ {
		for i, cfg := range cfgs {
			r, err := RunWith(ws, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r != want[i] {
				t.Errorf("pass %d cfg %d: RunWith = %+v, Run = %+v", pass, i, r, want[i])
			}
		}
	}
}

// TestRunWithAllocationFree proves the tentpole claim: a warmed
// workspace runs the whole hop kernel without allocating.
func TestRunWithAllocationFree(t *testing.T) {
	cfg := Config{Mt: 2, Mr: 2, B: 2, SNRPerBit: 10, Bits: 1200, Seed: 1}
	ws := NewWorkspace()
	if _, err := RunWith(ws, cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := RunWith(ws, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("RunWith allocates %.1f objects per run on a warm workspace, want 0", allocs)
	}
}
