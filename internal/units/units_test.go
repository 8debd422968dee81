package units

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return diff < tol
	}
	return diff/scale < tol
}

func TestDBLinear(t *testing.T) {
	cases := []struct {
		db   DB
		want float64
	}{
		{0, 1},
		{10, 10},
		{3, 1.9952623149688795},
		{-10, 0.1},
		{40, 1e4},               // Ml = 40 dB
		{5, 3.1622776601683795}, // GtGr = 5 dBi
	}
	for _, c := range cases {
		if got := c.db.Linear(); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("DB(%v).Linear() = %v, want %v", c.db, got, c.want)
		}
	}
}

func TestFromLinearRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		ratio := math.Abs(x)
		if ratio < 1e-12 || ratio > 1e12 || math.IsNaN(ratio) || math.IsInf(ratio, 0) {
			return true // out of interesting domain
		}
		back := FromLinear(ratio).Linear()
		return almostEqual(back, ratio, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDBmWatts(t *testing.T) {
	cases := []struct {
		dbm  DBm
		want Watt
	}{
		{0, 1e-3},
		{30, 1},
		{-30, 1e-6},
		{10, 1e-2},
	}
	for _, c := range cases {
		if got := c.dbm.Watts(); !almostEqual(float64(got), float64(c.want), 1e-12) {
			t.Errorf("DBm(%v).Watts() = %v, want %v", c.dbm, got, c.want)
		}
	}
}

func TestWattsToDBmRoundTrip(t *testing.T) {
	f := func(exp float64) bool {
		d := DBm(math.Mod(exp, 200)) // keep within sane dynamic range
		back := WattsToDBm(d.Watts())
		return almostEqual(float64(back), float64(d), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPaperNoiseDensities(t *testing.T) {
	// sigma^2 = -174 dBm/Hz and N0 = -171 dBm/Hz from Section 2.3.
	sigma2 := DBmPerHzToWattsPerHz(-174)
	n0 := DBmPerHzToWattsPerHz(-171)
	if !almostEqual(sigma2, 3.9810717055349695e-21, 1e-9) {
		t.Errorf("sigma^2 = %v W/Hz, want ~3.981e-21", sigma2)
	}
	if !almostEqual(n0, 7.943282347242789e-21, 1e-9) {
		t.Errorf("N0 = %v W/Hz, want ~7.943e-21", n0)
	}
	if n0 <= sigma2 {
		t.Errorf("N0 (%v) should exceed sigma^2 (%v): -171 dBm/Hz > -174 dBm/Hz", n0, sigma2)
	}
}

func TestMilliWatt(t *testing.T) {
	if got := MilliWatt(48.64); !almostEqual(float64(got), 0.04864, 1e-12) {
		t.Errorf("MilliWatt(48.64) = %v, want 0.04864", got)
	}
}

func TestStrings(t *testing.T) {
	cases := []struct {
		s    fmt.Stringer
		want string
	}{
		{Watt(0.04864), "0.04864 W"},
		{Hertz(40e3), "4e+04 Hz"},
		{Second(5e-6), "5e-06 s"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	if !strings.Contains(JoulePerBit(1.9e-18).String(), "J/bit") {
		t.Error("JoulePerBit.String should mention J/bit")
	}
}
