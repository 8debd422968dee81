package channel

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/mathx"
)

func paperLocal() LocalPathLoss {
	return LocalPathLoss{G1: 10, Kappa: 3.5, Ml: 1e4}
}

func paperLongHaul() LongHaulPathLoss {
	return LongHaulPathLoss{GtGr: math.Pow(10, 0.5), Lambda: 0.1199, Ml: 1e4, Nf: 10}
}

func TestLocalPathLossMonotone(t *testing.T) {
	l := paperLocal()
	prev := l.Gain(0.5)
	for d := 1.0; d <= 16; d *= 2 {
		g := l.Gain(d)
		if g <= prev {
			t.Fatalf("gain not increasing at d=%v", d)
		}
		prev = g
	}
	// Doubling distance multiplies loss by 2^kappa.
	r := l.Gain(8) / l.Gain(4)
	if math.Abs(r-math.Pow(2, 3.5)) > 1e-9 {
		t.Errorf("scaling ratio = %v, want 2^3.5", r)
	}
	// d = 1 reduces to G1*Ml.
	if g := l.Gain(1); math.Abs(g-1e5) > 1e-6 {
		t.Errorf("Gain(1) = %v, want 1e5", g)
	}
}

func TestLocalPathLossNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative distance should panic")
		}
	}()
	paperLocal().Gain(-1)
}

func TestLongHaulSquareLaw(t *testing.T) {
	l := paperLongHaul()
	r := l.Gain(500) / l.Gain(250)
	if math.Abs(r-4) > 1e-9 {
		t.Errorf("square law ratio = %v, want 4", r)
	}
	// Spot value: (4*pi*100)^2 / (10^0.5 * 0.1199^2) * 1e4 * 10.
	want := math.Pow(4*math.Pi*100, 2) / (math.Pow(10, 0.5) * 0.1199 * 0.1199) * 1e5
	if g := l.Gain(100); math.Abs(g/want-1) > 1e-12 {
		t.Errorf("Gain(100) = %v, want %v", g, want)
	}
}

func TestDistanceForGainRoundTrip(t *testing.T) {
	l := paperLongHaul()
	for _, d := range []float64{10, 150, 250, 406} {
		back := l.DistanceForGain(l.Gain(d))
		if math.Abs(back-d) > 1e-9*d {
			t.Errorf("round trip %v -> %v", d, back)
		}
	}
}

func TestDistanceForGainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive gain should panic")
		}
	}()
	paperLongHaul().DistanceForGain(0)
}

func TestRayleighStatistics(t *testing.T) {
	rng := mathx.NewRand(21)
	var pow mathx.Running
	for i := 0; i < 5000; i++ {
		h := RayleighInto(rng, 2, 3, nil)
		if h.Rows != 3 || h.Cols != 2 {
			t.Fatalf("H dims %dx%d, want 3x2 (mr x mt)", h.Rows, h.Cols)
		}
		pow.Add(h.FrobeniusNorm2())
	}
	// E||H||_F^2 = mt*mr = 6.
	if math.Abs(pow.Mean()-6) > 0.15 {
		t.Errorf("mean ||H||^2 = %v, want 6", pow.Mean())
	}
}

func TestAWGNStatistics(t *testing.T) {
	rng := mathx.NewRand(23)
	n := make([]complex128, 200000)
	AWGN(rng, n, 2.0)
	var pow mathx.Running
	for _, z := range n {
		pow.Add(real(z)*real(z) + imag(z)*imag(z))
	}
	if math.Abs(pow.Mean()-2) > 0.05 {
		t.Errorf("noise power = %v, want 2", pow.Mean())
	}
}

func TestAWGNAddsInPlace(t *testing.T) {
	rng := mathx.NewRand(24)
	y := []complex128{10, 20}
	AWGN(rng, y, 1e-6)
	if math.Abs(real(y[0])-10) > 0.1 || math.Abs(real(y[1])-20) > 0.1 {
		t.Errorf("AWGN should perturb, not replace: %v", y)
	}
}

func TestIndoorModel(t *testing.T) {
	m := IndoorModel{
		RefDist:   1,
		RefLossDB: 40,
		Exponent:  3,
		RicianK:   8,
		Obstacles: []Obstacle{
			{Wall: geom.Segment{A: geom.Pt(1, -1), B: geom.Pt(1, 1)}, LossDB: 12, Label: "board"},
		},
	}
	a, b := geom.Pt(0, 0), geom.Pt(2, 0)
	// Crosses the board: base loss + 12 dB.
	base := 40 + 10*3*math.Log10(2)
	if got := m.PathLossDB(a, b); math.Abs(got-(base+12)) > 1e-9 {
		t.Errorf("obstructed loss = %v, want %v", got, base+12)
	}
	// A path around the board pays no penetration loss.
	c := geom.Pt(0, 5)
	if got := m.PathLossDB(c, geom.Pt(2, 5)); math.Abs(got-base) > 1e-9 {
		t.Errorf("clear loss = %v, want %v", got, base)
	}
	if m.Crossings(a, b) != 1 || m.Crossings(c, geom.Pt(2, 5)) != 0 {
		t.Error("Crossings wrong")
	}
	if k := m.LinkK(a, b); k != 4 {
		t.Errorf("obstructed K = %v, want 4", k)
	}
	if k := m.LinkK(c, geom.Pt(2, 5)); k != 8 {
		t.Errorf("clear K = %v, want 8", k)
	}
	// Sub-reference distances clamp to d0.
	if got := m.PathLossDB(geom.Pt(0, 0), geom.Pt(0.1, 0)); got != 40 {
		t.Errorf("sub-ref loss = %v, want 40", got)
	}
}
