package mathx

import (
	"errors"
	"math"
	"testing"
)

func TestBisectSimple(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	x, err := Bisect(f, 0, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-math.Sqrt2) > 1e-10 {
		t.Errorf("Bisect sqrt(2) = %v", x)
	}
}

func TestBisectEndpointRoots(t *testing.T) {
	f := func(x float64) float64 { return x }
	if x, err := Bisect(f, 0, 1, 1e-12); err != nil || x != 0 {
		t.Errorf("Bisect endpoint root: x=%v err=%v", x, err)
	}
	if x, err := Bisect(f, -1, 0, 1e-12); err != nil || x != 0 {
		t.Errorf("Bisect endpoint root: x=%v err=%v", x, err)
	}
}

func TestBisectNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := Bisect(f, -1, 1, 1e-9); !errors.Is(err, ErrNoBracket) {
		t.Errorf("expected ErrNoBracket, got %v", err)
	}
}

func TestBisectLog(t *testing.T) {
	// Root at 1e-18, interval spanning 12 decades.
	f := func(x float64) float64 { return math.Log10(x) + 18 }
	x, err := BisectLog(f, 1e-24, 1e-12, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x/1e-18-1) > 1e-6 {
		t.Errorf("BisectLog root = %v, want 1e-18", x)
	}
}

func TestBisectLogBadInterval(t *testing.T) {
	f := func(x float64) float64 { return x }
	for _, iv := range [][2]float64{{-1, 1}, {0, 1}, {2, 1}} {
		if _, err := BisectLog(f, iv[0], iv[1], 1e-9); err == nil {
			t.Errorf("BisectLog(%v) should fail", iv)
		}
	}
}

func TestBrent(t *testing.T) {
	cases := []struct {
		f    func(float64) float64
		a, b float64
		root float64
	}{
		{func(x float64) float64 { return x*x*x - x - 2 }, 1, 2, 1.5213797068045676},
		{func(x float64) float64 { return math.Cos(x) - x }, 0, 1, 0.7390851332151607},
		{func(x float64) float64 { return math.Exp(x) - 10 }, 0, 5, math.Log(10)},
	}
	for i, c := range cases {
		x, err := Brent(c.f, c.a, c.b, 1e-13)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if math.Abs(x-c.root) > 1e-9 {
			t.Errorf("case %d: Brent = %v, want %v", i, x, c.root)
		}
	}
}

func TestBrentNoBracket(t *testing.T) {
	if _, err := Brent(func(x float64) float64 { return 1 }, 0, 1, 1e-9); !errors.Is(err, ErrNoBracket) {
		t.Errorf("expected ErrNoBracket, got %v", err)
	}
}

func TestBrentMatchesBisect(t *testing.T) {
	f := func(x float64) float64 { return math.Tanh(x-3) + 0.5 }
	xb, err1 := Bisect(f, 0, 10, 1e-12)
	xr, err2 := Brent(f, 0, 10, 1e-12)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if math.Abs(xb-xr) > 1e-8 {
		t.Errorf("Bisect=%v Brent=%v disagree", xb, xr)
	}
}

// TestBrentInfiniteEndpoint: log(0) = -Inf at the lower endpoint must
// neither poison the interpolation nor stop the bracket from closing.
func TestBrentInfiniteEndpoint(t *testing.T) {
	for _, iv := range [][2]float64{{0, 5}, {5, 0}} {
		x, err := Brent(math.Log, iv[0], iv[1], 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(x-1) > 1e-11 {
			t.Errorf("Brent(log, %v) = %v, want 1", iv, x)
		}
	}
}

// TestBrentSteepLogLogSigmoid solves the shape of the ēb inversion:
// the log of an AWGN BPSK BER over 41 nats of log-energy, flat at the
// low end and falling ever faster until Q underflows to 0 and the log
// to -Inf at the high end. Safeguarded Brent must converge to 1e-6 in
// at most 16 evaluations.
func TestBrentSteepLogLogSigmoid(t *testing.T) {
	const p = 1e-3
	var evals int
	f := func(u float64) float64 {
		evals++
		return math.Log(Q(math.Sqrt(2*math.Exp(u)))) - math.Log(p)
	}
	u, err := Brent(f, -20, 21, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * math.Log(QInv(p)/math.Sqrt2)
	if math.Abs(u-want) > 1e-6 {
		t.Errorf("root %v, want %v", u, want)
	}
	if evals > 16 {
		t.Errorf("%d evaluations, want at most 16", evals)
	}
}

func TestMinimizeGrid(t *testing.T) {
	f := func(x float64) float64 { return (x - 0.3) * (x - 0.3) }
	x, fx := MinimizeGrid(f, 0, 1, 1000)
	if math.Abs(x-0.3) > 2e-3 {
		t.Errorf("MinimizeGrid x = %v", x)
	}
	if fx > 1e-5 {
		t.Errorf("MinimizeGrid fx = %v", fx)
	}
	// n < 1 falls back to endpoints only.
	x, _ = MinimizeGrid(f, 0, 1, 0)
	if x != 0 && x != 1 {
		t.Errorf("MinimizeGrid degenerate x = %v", x)
	}
}
