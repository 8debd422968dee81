package energy

import (
	"math"
	"testing"

	"repro/internal/ebtable"
	"repro/internal/units"
)

func paperModel(t *testing.T, bandwidth units.Hertz) *Model {
	t.Helper()
	m, err := New(Paper(bandwidth), ebtable.Analytic{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPaperConstants(t *testing.T) {
	p := Paper(40e3)
	if math.Abs(float64(p.Pct)-0.04864) > 1e-12 {
		t.Errorf("Pct = %v", p.Pct)
	}
	if math.Abs(p.Ml-1e4) > 1e-6 {
		t.Errorf("Ml = %v", p.Ml)
	}
	if math.Abs(p.Nf-10) > 1e-9 {
		t.Errorf("Nf = %v", p.Nf)
	}
	if math.Abs(p.Sigma2-3.9810717055349695e-21) > 1e-30 {
		t.Errorf("Sigma2 = %v", p.Sigma2)
	}
	if math.Abs(p.GtGr-math.Pow(10, 0.5)) > 1e-9 {
		t.Errorf("GtGr = %v", p.GtGr)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("paper constants invalid: %v", err)
	}
}

func TestValidate(t *testing.T) {
	bad := Paper(40e3)
	bad.Bandwidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero bandwidth should fail")
	}
	bad = Paper(40e3)
	bad.PacketBits = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero packet size should fail")
	}
	bad = Paper(40e3)
	bad.N0 = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero N0 should fail")
	}
	bad = Paper(40e3)
	bad.Lambda = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative wavelength should fail")
	}
	bad = Paper(40e3)
	bad.BMax = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero BMax should fail")
	}
	if _, err := New(bad, ebtable.Analytic{}); err == nil {
		t.Error("New should propagate validation errors")
	}
}

func TestAlpha(t *testing.T) {
	// b=2: 3(2-1)/(0.35*(2+1)) = 3/1.05.
	if got, want := Alpha(2), 3.0/1.05; math.Abs(got-want) > 1e-12 {
		t.Errorf("Alpha(2) = %v, want %v", got, want)
	}
	// Monotone increasing in b: denser constellations have higher PAPR.
	prev := Alpha(1)
	for b := 2; b <= 16; b++ {
		if a := Alpha(b); a <= prev {
			t.Errorf("Alpha not increasing at b=%d", b)
		} else {
			prev = a
		}
	}
}

func TestLocalTxComponents(t *testing.T) {
	m := paperModel(t, 40e3)
	c, err := m.LocalTx(0.001, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Circuit: Pct/(b*B) + Psyn*Ttr/n = .04864/8e4 + .05*5e-6/1e4.
	wantCirc := 0.04864/8e4 + 0.05*5e-6/1e4
	if math.Abs(float64(c.Circuit)/wantCirc-1) > 1e-12 {
		t.Errorf("circuit = %v, want %v", c.Circuit, wantCirc)
	}
	// PA at d=1m: (4/3)(1+alpha)*1.5*ln(4*0.5/(2e-3))*1e5*10*sigma2.
	wantPA := 4.0 / 3 * (1 + Alpha(2)) * 1.5 * math.Log(1000) * 1e5 * 10 * m.P.Sigma2
	if math.Abs(float64(c.PA)/wantPA-1) > 1e-12 {
		t.Errorf("PA = %v, want %v", c.PA, wantPA)
	}
	// PA energy grows as d^3.5.
	c16, _ := m.LocalTx(0.001, 2, 16)
	if r := float64(c16.PA) / float64(c.PA); math.Abs(r-math.Pow(16, 3.5)) > 1e-6*math.Pow(16, 3.5) {
		t.Errorf("PA distance scaling = %v", r)
	}
	// Circuit cost is distance-independent.
	if c16.Circuit != c.Circuit {
		t.Error("circuit energy should not depend on distance")
	}
}

func TestLocalTxDegenerateBER(t *testing.T) {
	m := paperModel(t, 40e3)
	// An absurdly loose target drives the log argument below 1; PA clamps
	// to zero rather than going negative.
	c, err := m.LocalTx(0.999, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c.PA < 0 {
		t.Errorf("PA went negative: %v", c.PA)
	}
}

func TestLocalRx(t *testing.T) {
	m := paperModel(t, 40e3)
	c, err := m.LocalRx(2)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0625/8e4 + 0.05*5e-6/1e4
	if math.Abs(float64(c.Total())/want-1) > 1e-12 {
		t.Errorf("LocalRx = %v, want %v", c.Total(), want)
	}
	if c.PA != 0 {
		t.Error("reception should spend no PA energy")
	}
}

func TestMIMOTxAgainstHandComputation(t *testing.T) {
	m := paperModel(t, 40e3)
	const p, b, mt, mr, d = 0.001, 2, 2, 3, 250.0
	eb, err := ebtable.Analytic{}.EbBar(p, b, mt, mr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.MIMOTx(p, b, mt, mr, d)
	if err != nil {
		t.Fatal(err)
	}
	wantPA := (1 + Alpha(b)) / 2 * eb * math.Pow(4*math.Pi*d, 2) /
		(m.P.GtGr * m.P.Lambda * m.P.Lambda) * m.P.Ml * m.P.Nf
	if math.Abs(float64(c.PA)/wantPA-1) > 1e-9 {
		t.Errorf("PA = %v, want %v", c.PA, wantPA)
	}
	wantCirc := (0.04864 + 0.05) / 8e4
	if math.Abs(float64(c.Circuit)/wantCirc-1) > 1e-12 {
		t.Errorf("circuit = %v, want %v", c.Circuit, wantCirc)
	}
}

func TestMIMORx(t *testing.T) {
	m := paperModel(t, 40e3)
	c, err := m.MIMORx(4)
	if err != nil {
		t.Fatal(err)
	}
	want := (0.0625 + 0.05) / (4 * 40e3)
	if math.Abs(float64(c.Total())/want-1) > 1e-12 {
		t.Errorf("MIMORx = %v, want %v", c.Total(), want)
	}
}

func TestTxCostsMoreThanRx(t *testing.T) {
	// Section 6.1 leans on "transmission needs more energy than reception"
	// at long-haul distances.
	m := paperModel(t, 40e3)
	tx, _ := m.MIMOTx(0.001, 2, 2, 2, 200)
	rx, _ := m.MIMORx(2)
	if tx.Total() <= rx.Total() {
		t.Errorf("tx %v should exceed rx %v at 200 m", tx.Total(), rx.Total())
	}
}

// TestHopEnergyTerms: a hop is mt transmitters, mr receivers and one
// local broadcast per cooperating side plus one per gathering receiver;
// a non-cooperative hop has no local term and a zero span is priced at
// 0.1 m.
func TestHopEnergyTerms(t *testing.T) {
	m := paperModel(t, 40e3)
	const p, b, D = 1e-3, 2, 150.0
	rx, err := m.MIMORx(b)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := m.LocalTx(p, b, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ mt, mr, locals int }{
		{1, 1, 0}, {2, 1, 1}, {1, 3, 2}, {3, 2, 2},
	} {
		tx, err := m.MIMOTx(p, b, c.mt, c.mr, D)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(c.mt)*float64(tx.Total()) + float64(c.mr)*float64(rx.Total()) +
			float64(c.locals)*float64(lt.Total())
		got, err := m.HopEnergy(p, b, c.mt, c.mr, 0, D)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(float64(got)-want) > 1e-12*want {
			t.Errorf("%dx%d: HopEnergy = %v, want %v", c.mt, c.mr, got, want)
		}
	}
	if _, err := m.HopEnergy(p, 0, 2, 2, 1, D); err == nil {
		t.Error("b = 0 accepted")
	}
}

func TestMIMOTxDistanceRoundTrip(t *testing.T) {
	m := paperModel(t, 40e3)
	for _, d := range []float64{50, 150, 350} {
		c, err := m.MIMOTx(0.0005, 2, 3, 1, d)
		if err != nil {
			t.Fatal(err)
		}
		back, err := m.MIMOTxDistance(c.Total(), 0.0005, 2, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(back-d) > 1e-6*d {
			t.Errorf("round trip %v -> %v", d, back)
		}
	}
}

func TestMIMOTxDistanceInsufficientBudget(t *testing.T) {
	m := paperModel(t, 40e3)
	// A budget below the circuit floor cannot reach any distance.
	d, err := m.MIMOTxDistance(1e-12, 0.001, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("distance = %v, want 0", d)
	}
}

func TestDomainErrors(t *testing.T) {
	m := paperModel(t, 40e3)
	if _, err := m.LocalTx(0, 2, 1); err == nil {
		t.Error("p=0 should fail")
	}
	if _, err := m.LocalTx(0.001, 0, 1); err == nil {
		t.Error("b=0 should fail")
	}
	if _, err := m.LocalTx(0.001, 17, 1); err == nil {
		t.Error("b=17 should fail")
	}
	if _, err := m.MIMOTx(0.001, 2, 0, 1, 100); err == nil {
		t.Error("mt=0 should fail")
	}
	if _, err := m.MIMORx(0); err == nil {
		t.Error("b=0 should fail")
	}
	if _, err := m.MIMOTxDistance(1, 0.001, 2, -1, 1); err == nil {
		t.Error("negative mt should fail")
	}
	// Unreachable (p, b) propagates the ebtable error.
	if _, err := m.MIMOTx(0.2, 16, 1, 1, 100); err == nil {
		t.Error("unreachable target should fail")
	}
}

func TestOptimalMIMOB(t *testing.T) {
	m := paperModel(t, 40e3)
	res, err := m.OptimalMIMOB(0.001, 2, 2, 250, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive check that nothing beats the winner.
	for b := 1; b <= 16; b++ {
		c, err := m.MIMOTx(0.001, b, 2, 2, 250)
		if err != nil {
			continue
		}
		if c.Total() < res.Cost.Total() {
			t.Errorf("b=%d beats declared optimum b=%d", b, res.B)
		}
	}
	// PA-only objective may pick a different b (underlay's criterion).
	paOnly, err := m.OptimalMIMOB(0.001, 2, 2, 250, func(c Cost) float64 { return float64(c.PA) })
	if err != nil {
		t.Fatal(err)
	}
	for b := 1; b <= 16; b++ {
		c, err := m.MIMOTx(0.001, b, 2, 2, 250)
		if err != nil {
			continue
		}
		if c.PA < paOnly.Cost.PA {
			t.Errorf("b=%d beats PA-only optimum b=%d", b, paOnly.B)
		}
	}
}

func TestOptimalLocalB(t *testing.T) {
	m := paperModel(t, 40e3)
	res, err := m.OptimalLocalB(0.001, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for b := 1; b <= 16; b++ {
		c, err := m.LocalTx(0.001, b, 1)
		if err != nil {
			continue
		}
		if c.Total() < res.Cost.Total() {
			t.Errorf("b=%d beats declared optimum b=%d", b, res.B)
		}
	}
	// At short range the circuit term dominates, so the optimum is a
	// dense constellation (less time on air).
	if res.B < 4 {
		t.Errorf("short-range local optimum b=%d suspiciously small", res.B)
	}
}

func TestBandwidthScalesCircuitEnergy(t *testing.T) {
	m20 := paperModel(t, 20e3)
	m40 := paperModel(t, 40e3)
	c20, _ := m20.MIMORx(2)
	c40, _ := m40.MIMORx(2)
	if math.Abs(float64(c20.Total())/float64(c40.Total())-2) > 1e-9 {
		t.Errorf("halving bandwidth should double circuit energy per bit: %v vs %v", c20.Total(), c40.Total())
	}
}
