package channel

import (
	"math"
	"testing"
)

func TestThreeSlopeSegments(t *testing.T) {
	p := ThreeSlopePathLoss{LRefDB: 140.7, D0: 10, D1: 50}

	// Outer slope: 35 dB per decade.
	if got := p.GainDB(1000) - p.GainDB(100); math.Abs(got+35) > 1e-9 {
		t.Errorf("outer decade drop = %g dB, want -35", got)
	}
	// Middle slope: 20 dB per decade (D0..D1 only spans part of a
	// decade, so check the exponent directly over a factor of 2).
	if got := p.GainDB(40) - p.GainDB(20); math.Abs(got+20*math.Log10(2)) > 1e-9 {
		t.Errorf("middle octave drop = %g dB, want %g", got, -20*math.Log10(2))
	}
	// Below D0 the loss is flat.
	if p.GainDB(0) != p.GainDB(10) || p.GainDB(3) != p.GainDB(10) {
		t.Error("inner segment is not constant")
	}
	// Continuity at both breakpoints.
	if got, want := p.GainDB(50), p.GainDB(50.0000001); math.Abs(got-want) > 1e-5 {
		t.Errorf("discontinuity at D1: %g vs %g", got, want)
	}
	// Anchor: at 1 km the outer branch reads exactly -LRef.
	if got := p.GainDB(1000); math.Abs(got+140.7) > 1e-9 {
		t.Errorf("GainDB(1km) = %g, want -140.7", got)
	}
	// Monotone non-increasing in distance.
	prev := math.Inf(1)
	for d := 1.0; d < 2000; d *= 1.3 {
		g := p.GainDB(d)
		if g > prev {
			t.Fatalf("gain increased at d=%g", d)
		}
		prev = g
	}
}
