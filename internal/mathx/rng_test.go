package mathx

import (
	"math"
	"testing"
)

func TestNewRandDeterminism(t *testing.T) {
	a, b := NewRand(123), NewRand(123)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestDeriveSeeds(t *testing.T) {
	s1 := DeriveSeeds(99, 8)
	s2 := DeriveSeeds(99, 8)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("DeriveSeeds not deterministic")
		}
	}
	seen := map[int64]bool{}
	for _, s := range s1 {
		if seen[s] {
			t.Fatal("duplicate derived seed")
		}
		seen[s] = true
	}
	// Different masters must give different streams.
	other := DeriveSeeds(100, 8)
	same := 0
	for i := range s1 {
		if s1[i] == other[i] {
			same++
		}
	}
	if same == len(s1) {
		t.Fatal("different masters gave identical seeds")
	}
	if len(DeriveSeeds(1, 0)) != 0 {
		t.Fatal("zero seeds requested")
	}
}

// TestDeriveSeedMatchesWalk: the closed-form i-th seed is the i-th
// seed of the sequential walk, for masters that wrap the state.
func TestDeriveSeedMatchesWalk(t *testing.T) {
	for _, master := range []int64{0, 1, -1, 99, math.MaxInt64, math.MinInt64} {
		walk := DeriveSeeds(master, 300)
		for i, want := range walk {
			if got := DeriveSeed(master, i); got != want {
				t.Fatalf("DeriveSeed(%d, %d) = %d, want %d", master, i, got, want)
			}
		}
	}
}

func TestRayleighMoments(t *testing.T) {
	rng := NewRand(5)
	var r Running
	const sigma = 2.0
	for i := 0; i < 200000; i++ {
		r.Add(Rayleigh(rng, sigma))
	}
	wantMean := sigma * math.Sqrt(math.Pi/2)
	if math.Abs(r.Mean()-wantMean) > 0.02*wantMean {
		t.Errorf("Rayleigh mean = %v, want %v", r.Mean(), wantMean)
	}
	wantVar := (2 - math.Pi/2) * sigma * sigma
	if math.Abs(r.Variance()-wantVar) > 0.03*wantVar {
		t.Errorf("Rayleigh var = %v, want %v", r.Variance(), wantVar)
	}
}

func TestComplexCNVariance(t *testing.T) {
	rng := NewRand(6)
	var p Running
	for i := 0; i < 200000; i++ {
		z := ComplexCN(rng, 3.0)
		p.Add(real(z)*real(z) + imag(z)*imag(z))
	}
	if math.Abs(p.Mean()-3) > 0.05 {
		t.Errorf("CN power = %v, want 3", p.Mean())
	}
}

func TestRicianLimits(t *testing.T) {
	rng := NewRand(7)
	// K=0 should match Rayleigh with omega=1: mean sqrt(pi)/2.
	var r Running
	for i := 0; i < 200000; i++ {
		r.Add(Rician(rng, 0, 1))
	}
	want := math.Sqrt(math.Pi) / 2
	if math.Abs(r.Mean()-want) > 0.02 {
		t.Errorf("Rician K=0 mean = %v, want %v", r.Mean(), want)
	}
	// Large K approaches deterministic amplitude sqrt(omega).
	var h Running
	for i := 0; i < 50000; i++ {
		h.Add(Rician(rng, 1e6, 4))
	}
	if math.Abs(h.Mean()-2) > 0.01 {
		t.Errorf("Rician K->inf mean = %v, want 2", h.Mean())
	}
	if h.StdDev() > 0.01 {
		t.Errorf("Rician K->inf stddev = %v, want ~0", h.StdDev())
	}
	// Mean-square power equals omega for any K.
	var p Running
	for i := 0; i < 200000; i++ {
		x := Rician(rng, 3, 2.5)
		p.Add(x * x)
	}
	if math.Abs(p.Mean()-2.5) > 0.05 {
		t.Errorf("Rician power = %v, want 2.5", p.Mean())
	}
	// Negative K is clamped to Rayleigh rather than producing NaN.
	if v := Rician(rng, -1, 1); math.IsNaN(v) || v < 0 {
		t.Errorf("Rician with negative K = %v", v)
	}
}

func TestExpVariate(t *testing.T) {
	rng := NewRand(8)
	var r Running
	for i := 0; i < 200000; i++ {
		r.Add(ExpVariate(rng, 4))
	}
	if math.Abs(r.Mean()-4) > 0.1 {
		t.Errorf("Exp mean = %v, want 4", r.Mean())
	}
}

func TestSplitMix64Sequence(t *testing.T) {
	var s uint64 = 0
	a := SplitMix64(&s)
	b := SplitMix64(&s)
	if a == b {
		t.Error("splitmix64 repeated")
	}
	// Known first output for state 0 (reference value of splitmix64).
	var z uint64 = 0
	if got := SplitMix64(&z); got != 0xe220a8397b1dcdaf {
		t.Errorf("splitmix64(0) = %#x, want 0xe220a8397b1dcdaf", got)
	}
}
