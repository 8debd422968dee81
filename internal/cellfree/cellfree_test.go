package cellfree

import (
	"math"
	"testing"
)

func TestRunDeterministic(t *testing.T) {
	for _, comb := range []Combiner{CombinerMR, CombinerMMSE} {
		cfg := Quick()
		cfg.Combiner = comb
		cfg.Seed = 42
		a, err := RunWith(NewWorkspace(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		// A fresh workspace and a reused one must agree bit for bit.
		ws := NewWorkspace()
		for round := 0; round < 2; round++ {
			b, err := RunWith(ws, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a.SE {
				if a.SE[i] != b.SE[i] {
					t.Fatalf("%v round %d: SE[%d] = %v != %v", comb, round, i, b.SE[i], a.SE[i])
				}
			}
		}
	}
}

// TestWorkspaceShapeReuse runs configs of different sizes through one
// workspace and checks each still matches a fresh-workspace run, so
// buffer reuse can never leak state across shapes.
func TestWorkspaceShapeReuse(t *testing.T) {
	ws := NewWorkspace()
	big := Quick()
	big.L, big.K, big.N = 30, 10, 2
	big.Combiner = CombinerMMSE
	small := Quick()
	small.Combiner = CombinerMMSE
	for _, cfg := range []Config{big, small, big} {
		got, err := RunWith(ws, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunWith(NewWorkspace(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.SE {
			if got.SE[i] != want.SE[i] {
				t.Fatalf("L=%d: SE[%d] = %v, fresh workspace %v", cfg.L, i, got.SE[i], want.SE[i])
			}
		}
	}
}

// TestMMSEDominatesMR pins the ordering the smoke gate asserts, at its
// strongest form: on the same seed (hence the same snapshot and the
// same channel draws) MMSE combining achieves at least MR's SE for
// every single user, because the MMSE combiner maximizes the SINR both
// are scored by.
func TestMMSEDominatesMR(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		mr := Quick()
		mr.Seed = seed
		mm := mr
		mm.Combiner = CombinerMMSE
		a, err := RunWith(NewWorkspace(), mr)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunWith(NewWorkspace(), mm)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.SE {
			if !(a.SE[i] > 0) || math.IsInf(a.SE[i], 0) {
				t.Fatalf("seed %d: MR SE[%d] = %v not positive finite", seed, i, a.SE[i])
			}
			if b.SE[i] < a.SE[i] {
				t.Fatalf("seed %d: MMSE SE[%d] = %v < MR %v", seed, i, b.SE[i], a.SE[i])
			}
		}
	}
}

// TestSetupStructure checks the combinatorial invariants of pilot
// assignment and dynamic cooperation clustering on many snapshots.
func TestSetupStructure(t *testing.T) {
	cfg := Quick()
	ws := NewWorkspace()
	for seed := int64(1); seed <= 50; seed++ {
		cfg.Seed = seed
		if _, err := RunWith(ws, cfg); err != nil {
			t.Fatal(err)
		}
		counts := make([]int, cfg.TauP)
		for ki := 0; ki < cfg.K; ki++ {
			p := ws.pilot[ki]
			if p < 0 || p >= cfg.TauP {
				t.Fatalf("seed %d: pilot[%d] = %d out of range", seed, ki, p)
			}
			counts[p]++
			if ki < cfg.TauP && p != ki {
				t.Fatalf("seed %d: UE %d should hold orthogonal pilot %d, got %d", seed, ki, ki, p)
			}
			if !ws.serve[ws.master[ki]*cfg.K+ki] {
				t.Fatalf("seed %d: UE %d not served by its master AP", seed, ki)
			}
		}
		// K > TauP forces reuse somewhere.
		if cfg.K > cfg.TauP {
			reused := false
			for _, c := range counts {
				if c > 1 {
					reused = true
				}
			}
			if !reused {
				t.Fatalf("seed %d: no pilot reused despite K=%d > TauP=%d", seed, cfg.K, cfg.TauP)
			}
		}
		// An AP serves at most one UE per pilot, plus masters: never
		// more than TauP + masters-forced extras, and trivially never
		// more than K; check the per-pilot rule directly.
		for li := 0; li < cfg.L; li++ {
			perPilot := make(map[int]int)
			for ki := 0; ki < cfg.K; ki++ {
				if ws.serve[li*cfg.K+ki] && ws.master[ki] != li {
					perPilot[ws.pilot[ki]]++
				}
			}
			for p, c := range perPilot {
				if c > 1 {
					t.Fatalf("seed %d: AP %d serves %d non-master UEs on pilot %d", seed, li, c, p)
				}
			}
		}
		// Estimation statistics are sane: 0 < gammaBar <= betaBar.
		for i, gm := range ws.gammaBar[:cfg.L*cfg.K] {
			if !(gm > 0) || gm > ws.betaBar[i] {
				t.Fatalf("seed %d: gammaBar[%d] = %v outside (0, betaBar=%v]", seed, i, gm, ws.betaBar[i])
			}
		}
	}
}

// TestContaminationReducesGamma pins the pilot-contamination
// accounting: adding a co-pilot UE strictly lowers the estimate
// quality of the UE it contaminates.
func TestContaminationReducesGamma(t *testing.T) {
	cfg := Quick()
	cfg.Seed = 7
	ws := NewWorkspace()
	if _, err := RunWith(ws, cfg); err != nil {
		t.Fatal(err)
	}
	// Find a contaminated pair and an AP: gammaBar must be below the
	// contamination-free value tauP*beta^2/(tauP*beta+1).
	tauP := float64(cfg.TauP)
	found := false
	for ki := 0; ki < cfg.K && !found; ki++ {
		for kj := 0; kj < cfg.K; kj++ {
			if kj == ki || ws.pilot[kj] != ws.pilot[ki] {
				continue
			}
			b := ws.betaBar[ki] // AP 0
			clean := tauP * b * b / (tauP*b + 1)
			if got := ws.gammaBar[ki]; got >= clean {
				t.Fatalf("UE %d contaminated by %d but gammaBar %v >= clean %v", ki, kj, got, clean)
			}
			found = true
			break
		}
	}
	if !found {
		t.Skip("no contaminated pair in this snapshot")
	}
}

func TestQuantile(t *testing.T) {
	r := Result{SE: []float64{3, 1, 2, 4}}
	med, scratch := r.Quantile(0.5, nil)
	if med != 2.5 {
		t.Fatalf("median = %v, want 2.5", med)
	}
	if lo, _ := r.Quantile(0, scratch); lo != 1 {
		t.Fatalf("q0 = %v, want 1", lo)
	}
	if hi, _ := r.Quantile(1, scratch); hi != 4 {
		t.Fatalf("q1 = %v, want 4", hi)
	}
	if q, _ := r.Quantile(0.25, scratch); q != 1.75 {
		t.Fatalf("q25 = %v, want 1.75", q)
	}
}

func TestValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.L = 0 },
		func(c *Config) { c.N = 0 },
		func(c *Config) { c.K = 0 },
		func(c *Config) { c.TauP = 0 },
		func(c *Config) { c.TauC = c.TauP },
		func(c *Config) { c.SquareLength = 0 },
		func(c *Config) { c.PowerMW = 0 },
		func(c *Config) { c.NoiseMW = -1 },
		func(c *Config) { c.SigmaShadowDB = -1 },
		func(c *Config) { c.PathLoss.D0 = 0 },
		func(c *Config) { c.Realizations = 0 },
		func(c *Config) { c.Combiner = Combiner(9) },
		func(c *Config) { c.L, c.N = 4096, 64 },
		func(c *Config) { c.L, c.N = 257, 4 },
		func(c *Config) { c.K = 4096 },
		func(c *Config) { c.TauP, c.TauC = 2000, 4000 },
		func(c *Config) { c.Realizations = 2e9 },
		func(c *Config) { c.SquareLength = 1e308 },
		func(c *Config) { c.SquareLength = math.NaN() },
		func(c *Config) { c.PowerMW = math.Inf(1) },
		func(c *Config) { c.PowerMW, c.NoiseMW = 1e21, 1 },
		func(c *Config) { c.NoiseMW = math.NaN() },
		func(c *Config) { c.SigmaShadowDB = 1e300 },
		func(c *Config) { c.SigmaShadowDB = math.NaN() },
		func(c *Config) { c.PathLoss.D1 = math.Inf(1) },
	}
	for i, mut := range bad {
		cfg := Quick()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: bad config validated", i)
		}
	}
	if err := Quick().Validate(); err != nil {
		t.Errorf("Quick preset invalid: %v", err)
	}
	// The paper's own scale: L*N = 400 antennas, K = 100 UEs with 10
	// pilots on a 1 km square, 1000 realizations per setup.
	for _, ln := range [][2]int{{400, 1}, {100, 4}} {
		cfg := Quick()
		cfg.L, cfg.N, cfg.K, cfg.TauP = ln[0], ln[1], 100, 10
		cfg.SquareLength, cfg.Realizations = 1000, 1000
		if err := cfg.Validate(); err != nil {
			t.Errorf("paper scale L=%d N=%d invalid: %v", ln[0], ln[1], err)
		}
	}
}
