package overlay

import (
	"math"
	"testing"

	"repro/internal/ebtable"
	"repro/internal/energy"
	"repro/internal/units"
)

func cfg(t *testing.T, m int, bandwidth units.Hertz) Config {
	t.Helper()
	model, err := energy.New(energy.Paper(bandwidth), ebtable.Analytic{})
	if err != nil {
		t.Fatal(err)
	}
	return Config{Model: model, M: m, DirectBER: 0.005, RelayBER: 0.0005}
}

func TestConfigValidate(t *testing.T) {
	good := cfg(t, 3, 40e3)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Model = nil
	if bad.Validate() == nil {
		t.Error("nil model should fail")
	}
	bad = good
	bad.M = 0
	if bad.Validate() == nil {
		t.Error("m=0 should fail")
	}
	bad = good
	bad.DirectBER = 0
	if bad.Validate() == nil {
		t.Error("p=0 should fail")
	}
	bad = good
	bad.RelayBER = 1
	if bad.Validate() == nil {
		t.Error("p=1 should fail")
	}
}

func TestAnalyzeBasicShape(t *testing.T) {
	c := cfg(t, 3, 40e3)
	a, err := Analyze(c, 250)
	if err != nil {
		t.Fatal(err)
	}
	if a.E1 <= 0 {
		t.Fatalf("E1 = %v", a.E1)
	}
	if a.D2 <= 0 || a.D3 <= 0 {
		t.Fatalf("distances D2=%v D3=%v", a.D2, a.D3)
	}
	// Under the paper's printed gamma_b (ConvPaper) the SIMO and MISO
	// coefficients are symmetric, so D3 trails D2 only by the charged
	// receive leg: within a few percent.
	if a.D3 > a.D2 || a.D3 < 0.9*a.D2 {
		t.Errorf("D3 (%v) should sit just below D2 (%v)", a.D3, a.D2)
	}
	// The headline claim: SUs relay from far away — both leg lengths
	// exceed the original link length at a 10x tighter BER.
	if a.D2 < a.D1 || a.D3 < a.D1 {
		t.Errorf("relays should outrange the direct link: D2=%v D3=%v D1=%v", a.D2, a.D3, a.D1)
	}
	if a.BDirect < 1 || a.B2 < 1 || a.B3 < 1 {
		t.Errorf("constellations not recorded: %+v", a)
	}
}

// TestPaperDistanceRatio reproduces the Figure 6 shape under the
// convention the paper's evaluation actually used (ConvArray — see
// DESIGN.md): the reported D3/D2 = 406/235 is exactly sqrt(m) for m = 3,
// i.e. "the distance from SUs to Pr is larger than from SUs to Pt".
func TestPaperDistanceRatio(t *testing.T) {
	model, err := energy.New(energy.Paper(40e3), ebtable.Analytic{Convention: ebtable.ConvArray})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{2, 3, 4} {
		c := Config{Model: model, M: m, DirectBER: 0.005, RelayBER: 0.0005}
		a, err := Analyze(c, 250)
		if err != nil {
			t.Fatal(err)
		}
		// The receive leg charged against the MISO budget shaves ~7%
		// off the ideal sqrt(m).
		ratio := a.D3 / a.D2
		want := math.Sqrt(float64(m))
		if ratio > want || ratio < 0.88*want {
			t.Errorf("m=%d: D3/D2 = %v, want just below sqrt(m)=%v", m, ratio, want)
		}
	}
}

// TestPaperSpotCheck pins the Section 6.1 worked example's qualitative
// content: at D1 = 250 m, m = 3, B = 40 kHz the paper reports D2 ~ 235 m
// and D3 ~ 406 m. Our exact ēb solutions place both distances higher by
// a common factor (~2.8x; the paper's table has weaker receive diversity
// than ideal MRC — see EXPERIMENTS.md), so the assertions are: both legs
// are hundreds of metres, the relays outrange the direct link, and the
// values stay within one small multiple of the paper's.
func TestPaperSpotCheck(t *testing.T) {
	c := cfg(t, 3, 40e3)
	a, err := Analyze(c, 250)
	if err != nil {
		t.Fatal(err)
	}
	if a.D2 < 235 || a.D2 > 235*4 {
		t.Errorf("D2 = %v m, paper reports ~235 m (expect within 4x above)", a.D2)
	}
	if a.D3 < 406/2.0 || a.D3 > 406*4 {
		t.Errorf("D3 = %v m, paper reports ~406 m (expect within 4x)", a.D3)
	}
	if a.D3 <= a.D1 {
		t.Errorf("relays should outrange the direct link: D3=%v <= D1=%v", a.D3, a.D1)
	}
}

func TestDistancesGrowWithD1(t *testing.T) {
	c := cfg(t, 2, 20e3)
	var sweep []Analysis
	for d1 := 150.0; d1 <= 350; d1 += 50 {
		a, err := Analyze(c, d1)
		if err != nil {
			t.Fatal(err)
		}
		sweep = append(sweep, a)
	}
	for i := 1; i < len(sweep); i++ {
		if sweep[i].E1 <= sweep[i-1].E1 {
			t.Errorf("E1 not increasing at D1=%v", sweep[i].D1)
		}
		if sweep[i].D2 <= sweep[i-1].D2 || sweep[i].D3 <= sweep[i-1].D3 {
			t.Errorf("distances not increasing at D1=%v", sweep[i].D1)
		}
	}
}

func TestBandwidthEffect(t *testing.T) {
	// Narrower bandwidth raises the circuit energy per bit, so the direct
	// link's budget E1 grows; because the same circuit cost is charged
	// back on the relay legs, the reachable distances barely move. (The
	// paper's Figure 6 shows a visible bandwidth gap; its stated per-bit
	// energy model cannot produce one — a documented deviation, see
	// EXPERIMENTS.md.)
	a20, err := Analyze(cfg(t, 3, 20e3), 250)
	if err != nil {
		t.Fatal(err)
	}
	a40, err := Analyze(cfg(t, 3, 40e3), 250)
	if err != nil {
		t.Fatal(err)
	}
	if a20.E1 <= a40.E1 {
		t.Errorf("E1 at 20k (%v) should exceed 40k (%v)", a20.E1, a40.E1)
	}
	if math.Abs(a40.D2/a20.D2-1) > 0.10 {
		t.Errorf("D2 should be nearly bandwidth-independent: %v vs %v", a40.D2, a20.D2)
	}
}

func TestMoreRelaysHelpAtLargeD1(t *testing.T) {
	// Figure 6(b): under the same bandwidth the m=3 curve overtakes m=2
	// beyond moderate separations.
	a2, err := Analyze(cfg(t, 2, 40e3), 300)
	if err != nil {
		t.Fatal(err)
	}
	a3, err := Analyze(cfg(t, 3, 40e3), 300)
	if err != nil {
		t.Fatal(err)
	}
	if a3.D3 < a2.D3*0.95 {
		t.Errorf("m=3 D3 (%v) should not trail m=2 (%v) at D1=300", a3.D3, a2.D3)
	}
}

func TestAnalyzeRejectsBadD1(t *testing.T) {
	c := cfg(t, 3, 40e3)
	if _, err := Analyze(c, 0); err == nil {
		t.Error("D1=0 should fail")
	}
	if _, err := Analyze(c, -5); err == nil {
		t.Error("negative D1 should fail")
	}
}

func TestBreakdown(t *testing.T) {
	c := cfg(t, 3, 40e3)
	bd, err := Breakdown(c, 235, 406)
	if err != nil {
		t.Fatal(err)
	}
	if bd.EPt <= 0 || bd.ESr <= 0 || bd.ESt <= 0 || bd.EPr <= 0 {
		t.Fatalf("non-positive energies: %+v", bd)
	}
	if bd.ES() != bd.ESt+bd.ESr {
		t.Error("ES() accounting wrong")
	}
	// Transmission dominates reception at hundreds of metres.
	if bd.ESt <= bd.ESr {
		t.Errorf("ESt (%v) should exceed ESr (%v)", bd.ESt, bd.ESr)
	}
	if _, err := Breakdown(c, 0, 10); err == nil {
		t.Error("zero leg should fail")
	}
}

func TestSweepValidation(t *testing.T) {
	c := cfg(t, 2, 40e3)
	if _, err := Sweep(c, 100, 50, 10); err == nil {
		t.Error("inverted range should fail")
	}
	if _, err := Sweep(c, 100, 200, 0); err == nil {
		t.Error("zero step should fail")
	}
}

func TestRelayBudgetNeverExceeded(t *testing.T) {
	// Invariant of the whole construction: transmitting back at distance
	// D3 costs at most E1 including the receive leg.
	c := cfg(t, 3, 40e3)
	a, err := Analyze(c, 300)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := c.Model.MIMOTx(c.RelayBER, a.B3, c.M, 1, a.D3)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := c.Model.MIMORx(a.B3)
	if err != nil {
		t.Fatal(err)
	}
	total := tx.Total() + rx.Total()
	if float64(total) > float64(a.E1)*(1+1e-6) {
		t.Errorf("per-SU spend %v exceeds budget %v", total, a.E1)
	}
	if math.Abs(float64(total)-float64(a.E1))/float64(a.E1) > 0.01 {
		t.Errorf("budget should be nearly exhausted at the max distance: spend %v vs %v", total, a.E1)
	}
}
