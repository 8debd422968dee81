package beamform

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func TestPhaseDelayPaperExample(t *testing.T) {
	// "delta = pi when r = w and alpha = 0" (Section 5).
	if d := PhaseDelay(1, 0, 1); math.Abs(d-math.Pi) > 1e-12 {
		t.Errorf("delta(r=w, alpha=0) = %v, want pi", d)
	}
	// r = w/2, alpha = 0 gives delta = 0.
	if d := PhaseDelay(0.5, 0, 1); math.Abs(d) > 1e-12 {
		t.Errorf("delta(r=w/2, alpha=0) = %v, want 0", d)
	}
}

func TestNewNullPairValidation(t *testing.T) {
	if _, err := NewNullPair(geom.Pt(0, 0), geom.Pt(0, 1), geom.Pt(5, 5), 0); err == nil {
		t.Error("zero wavelength should fail")
	}
	if _, err := NewNullPair(geom.Pt(0, 0), geom.Pt(0, 0), geom.Pt(5, 5), 1); err == nil {
		t.Error("coincident elements should fail")
	}
}

// TestNullAtPr verifies the core Section 5 claim: the field at the
// primary receiver vanishes (far field) and is tiny under exact
// propagation.
func TestNullAtPr(t *testing.T) {
	w := 30.0
	st1, st2 := geom.Pt(0, 7.5), geom.Pt(0, -7.5)
	for _, pr := range []geom.Point{
		geom.Pt(0, -500), geom.Pt(0, 700), geom.Pt(30, -600), geom.Pt(-100, 800),
	} {
		p, err := NewNullPair(st1, st2, pr, w)
		if err != nil {
			t.Fatal(err)
		}
		if a := p.AmplitudeFarField(pr); a > 0.02 {
			t.Errorf("far-field amplitude at Pr %v = %v, want ~0", pr, a)
		}
		if a := p.AmplitudeAt(pr); a > 0.08 {
			t.Errorf("exact amplitude at Pr %v = %v, want near 0", pr, a)
		}
	}
}

// TestGainTowardSr reproduces the Table 1 situation: Pr on (or near) the
// pair axis, Sr broadside — the pair should deliver close to the full
// 2x diversity amplitude at Sr while nulling Pr.
func TestGainTowardSr(t *testing.T) {
	w := 30.0
	st1, st2 := geom.Pt(0, 7.5), geom.Pt(0, -7.5)
	pr := geom.Pt(0, -300) // on-axis primary
	sr := geom.Pt(150, 0)  // broadside secondary
	p, err := NewNullPair(st1, st2, pr, w)
	if err != nil {
		t.Fatal(err)
	}
	a := p.AmplitudeAt(sr)
	if a < 1.7 || a > 2.0 {
		t.Errorf("amplitude at Sr = %v, want ~1.87-2.0", a)
	}
	if p.AmplitudeAt(pr) > 0.1 {
		t.Errorf("Pr not nulled: %v", p.AmplitudeAt(pr))
	}
}

func TestExactMatchesFarFieldAtRange(t *testing.T) {
	w := 2.0
	st1, st2 := geom.Pt(0, 1), geom.Pt(0, -1)
	pr := geom.Pt(0, -400)
	p, err := NewNullPair(st1, st2, pr, w)
	if err != nil {
		t.Fatal(err)
	}
	// Sample directions well away from the pair: models must agree.
	for deg := 0; deg < 360; deg += 15 {
		th := float64(deg) * math.Pi / 180
		q := geom.PolarPoint(geom.Pt(0, 0), 500, th)
		exact := p.AmplitudeAt(q)
		ff := p.AmplitudeFarField(q)
		if math.Abs(exact-ff) > 0.02 {
			t.Errorf("theta=%d: exact %v vs far-field %v", deg, exact, ff)
		}
	}
}

func TestFieldAtSuperposition(t *testing.T) {
	p := &Pair{
		St1: geom.Pt(0, 1), St2: geom.Pt(0, -1),
		Wavelength: 1, Amp1: 1, Amp2: 1,
	}
	// Equidistant point with zero imposed phase: waves add to amplitude 2.
	q := geom.Pt(50, 0)
	if a := p.AmplitudeAt(q); math.Abs(a-2) > 1e-9 {
		t.Errorf("in-phase amplitude = %v, want 2", a)
	}
	// Zero-amplitude pair radiates nothing.
	dead := &Pair{St1: p.St1, St2: p.St2, Wavelength: 1}
	if dead.AmplitudeAt(q) != 0 {
		t.Error("zero-amplitude pair should radiate 0")
	}
	// Asymmetric amplitudes bound the field by |a1 - a2| and a1 + a2.
	p.Amp2 = 0.5
	for deg := 0; deg < 360; deg += 30 {
		a := p.AmplitudeAt(geom.PolarPoint(geom.Pt(0, 0), 40, float64(deg)*math.Pi/180))
		if a < 0.5-1e-9 || a > 1.5+1e-9 {
			t.Errorf("amplitude %v outside [0.5, 1.5]", a)
		}
	}
}

// TestDesignNullAt checks the Figure 8 design: a null steered to 120
// degrees with half-wavelength spacing.
func TestDesignNullAt(t *testing.T) {
	w := 0.1224 // 2.45 GHz
	st1 := geom.Pt(-w/4, 0)
	st2 := geom.Pt(w/4, 0)
	null := 120 * math.Pi / 180
	p := &Pair{
		St1: st1, St2: st2, Wavelength: w,
		Delta1: DesignNullAt(st1, st2, w, null),
		Amp1:   1, Amp2: 1,
	}
	// The far-field null sits at 120 degrees.
	if a := p.AmplitudeFarField(geom.PolarPoint(geom.Pt(0, 0), 10, null)); a > 1e-9 {
		t.Errorf("far-field amplitude at null = %v", a)
	}
	// Exact model at the testbed's 1 m range: deep but not perfect.
	if depth := p.NullDepthDB(null, 1); depth > -25 {
		t.Errorf("null depth = %.1f dB, want deeper than -25 dB", depth)
	}
	// Away from the null the pattern should exceed SISO amplitude 1
	// (the diversity gain claim of Figure 8) over most directions.
	angles := []float64{0, 20, 40, 60, 80, 100, 160, 180}
	for i := range angles {
		angles[i] *= math.Pi / 180
	}
	pat := p.Pattern(angles, 1)
	above := 0
	for _, a := range pat {
		if a > 1 {
			above++
		}
	}
	if above < len(pat)-2 {
		t.Errorf("pattern exceeds SISO in only %d of %d sampled directions: %v", above, len(pat), pat)
	}
}

func TestPatternLength(t *testing.T) {
	p := &Pair{St1: geom.Pt(0, 1), St2: geom.Pt(0, -1), Wavelength: 1, Amp1: 1, Amp2: 1}
	if got := p.Pattern(nil, 5); len(got) != 0 {
		t.Error("empty angle list")
	}
	if got := p.Pattern(make([]float64, 7), 5); len(got) != 7 {
		t.Error("pattern length mismatch")
	}
}
