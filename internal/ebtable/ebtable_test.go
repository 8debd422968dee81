package ebtable

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/mathx"
	"repro/internal/modulation"
)

func TestAnalyticBERShape(t *testing.T) {
	// Zero or negative energy saturates.
	if got := AnalyticBER(1, 1, 1, 0, DefaultN0, ConvPaper); got != 0.5 {
		t.Errorf("saturation b=1: %v", got)
	}
	if got, want := AnalyticBER(4, 1, 1, -1, DefaultN0, ConvPaper), saturationBER(4); got != want {
		t.Errorf("saturation b=4: %v want %v", got, want)
	}
	// Strictly decreasing in eb.
	prev := AnalyticBER(2, 2, 2, 1e-22, DefaultN0, ConvPaper)
	for eb := 2e-22; eb < 1e-17; eb *= 2 {
		cur := AnalyticBER(2, 2, 2, eb, DefaultN0, ConvPaper)
		if cur >= prev {
			t.Fatalf("BER not decreasing at eb=%g", eb)
		}
		prev = cur
	}
}

// TestPaperAnchorSISO reproduces the Section 6.2 spot value: "when b = 2,
// ēb = 1.90e-18 if mt = mr = 1". Our closed form gives 1.98e-18 at
// p = 0.001; the paper's own number carries MC noise, so 10% tolerance.
func TestPaperAnchorSISO(t *testing.T) {
	eb, err := Analytic{}.EbBar(0.001, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eb/1.90e-18-1) > 0.10 {
		t.Errorf("ēb(0.001, b=2, 1x1) = %.3g, paper anchor 1.90e-18", eb)
	}
}

// TestPaperAnchorMIMO reproduces "ēb = 3.20e-20 if mt = 2 and mr = 3".
// Our exact closed form gives 2.04e-20; the paper's own figure comes from
// its (unpublished) numerical averaging, so the anchor is order-of-
// magnitude: within 2x.
func TestPaperAnchorMIMO(t *testing.T) {
	eb, err := Analytic{}.EbBar(0.001, 2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if eb < 3.20e-20/2 || eb > 3.20e-20*2 {
		t.Errorf("ēb(0.001, b=2, 2x3) = %.3g, paper anchor 3.20e-20", eb)
	}
	// The headline claim: cooperation buys orders of magnitude.
	siso, _ := Analytic{}.EbBar(0.001, 2, 1, 1)
	if ratio := siso / eb; ratio < 30 {
		t.Errorf("SISO/MIMO ēb ratio = %v, paper reports ~60x for this pair", ratio)
	}
}

func TestEbBarMonotonicity(t *testing.T) {
	a := Analytic{}
	// Decreasing in diversity order.
	prev := math.Inf(1)
	for _, pair := range [][2]int{{1, 1}, {1, 2}, {2, 2}, {2, 3}, {4, 4}} {
		eb, err := a.EbBar(0.001, 2, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if eb >= prev {
			t.Errorf("%dx%d: ēb=%g not below %g", pair[0], pair[1], eb, prev)
		}
		prev = eb
	}
	// Increasing as the BER target tightens.
	e1, _ := a.EbBar(0.01, 2, 2, 2)
	e2, _ := a.EbBar(0.001, 2, 2, 2)
	e3, _ := a.EbBar(0.0001, 2, 2, 2)
	if !(e1 < e2 && e2 < e3) {
		t.Errorf("ēb not increasing with tighter BER: %g %g %g", e1, e2, e3)
	}
}

func TestEbBarVerifiesDefiningEquation(t *testing.T) {
	a := Analytic{}
	for _, b := range []int{1, 2, 4, 8} {
		for _, p := range []float64{0.01, 0.001} {
			eb, err := a.EbBar(p, b, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got := AnalyticBER(b, 2, 2, eb, DefaultN0, ConvPaper); math.Abs(got/p-1) > 1e-6 {
				t.Errorf("b=%d p=%g: BER(ēb)=%g", b, p, got)
			}
		}
	}
}

func TestEbBarDomainErrors(t *testing.T) {
	a := Analytic{}
	cases := []struct {
		p         float64
		b, mt, mr int
	}{
		{0, 2, 1, 1},
		{1, 2, 1, 1},
		{0.001, 0, 1, 1},
		{0.001, 17, 1, 1},
		{0.001, 2, 0, 1},
		{0.001, 2, 1, 9},
	}
	for _, c := range cases {
		if _, err := a.EbBar(c.p, c.b, c.mt, c.mr); err == nil {
			t.Errorf("EbBar(%v, %d, %d, %d) should fail", c.p, c.b, c.mt, c.mr)
		}
	}
	// Saturation: b=16 caps near 0.125, so p=0.2 is unreachable.
	if _, err := a.EbBar(0.2, 16, 1, 1); err == nil {
		t.Error("unreachable target should fail")
	}
}

func TestMonteCarloMatchesAnalytic(t *testing.T) {
	mc := &MonteCarlo{Samples: 60000, Seed: 71}
	a := Analytic{}
	for _, tc := range []struct {
		p         float64
		b, mt, mr int
	}{
		{0.005, 1, 1, 1},
		{0.001, 2, 2, 1},
		{0.001, 2, 2, 3},
		{0.01, 4, 3, 2},
	} {
		want, err := a.EbBar(tc.p, tc.b, tc.mt, tc.mr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mc.EbBar(tc.p, tc.b, tc.mt, tc.mr)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got/want-1) > 0.10 {
			t.Errorf("%+v: MC %.3g vs analytic %.3g", tc, got, want)
		}
	}
}

func TestMonteCarloDeterministic(t *testing.T) {
	m1 := &MonteCarlo{Samples: 5000, Seed: 9}
	m2 := &MonteCarlo{Samples: 5000, Seed: 9}
	a, _ := m1.EbBar(0.005, 2, 2, 2)
	b, _ := m2.EbBar(0.005, 2, 2, 2)
	if a != b {
		t.Errorf("same seed gave %g and %g", a, b)
	}
}

// TestMonteCarloBERMatchesBERAWGN: BER is bit-identical to summing
// modulation.BERAWGN's terms over 256-sample blocks in block order, the
// reduction the estimator has always used, with the constellation
// constants hoisted out of the sample loop. 1000 samples leave a short
// last block. BERAWGN's Q runs on math.Erfc, whose last bit depends on
// the host's FMA path, and BER on the portable mathx.Erfc: in-process
// the oracle is BERAWGN's expression on mathx.Erfc; in the child of
// TestMonteCarloTableWithoutFMA, where the two agree, it is
// modulation.BERAWGN itself.
func TestMonteCarloBERMatchesBERAWGN(t *testing.T) {
	berAWGN := func(b int, gammaB float64) float64 {
		pre, k := berShape(b)
		return pre * (0.5 * mathx.Erfc(math.Sqrt(k*gammaB)/math.Sqrt2))
	}
	if os.Getenv(fmaOffEnv) != "" {
		berAWGN = modulation.BERAWGN
	}
	mc := &MonteCarlo{Samples: 1000, Seed: 3}
	samples := mc.norms(2, 3)
	for _, b := range []int{1, 2, 4, 7, 16} {
		for _, eb := range []float64{-1e-20, 0, 1e-22, 3e-21, 2e-20, 7e-19, 1e-16} {
			scale := max(eb, 0) / (DefaultN0 * 2)
			var want float64
			for lo := 0; lo < len(samples); lo += 256 {
				var s float64
				for _, h2 := range samples[lo:min(lo+256, len(samples))] {
					s += berAWGN(b, h2*scale)
				}
				want += s
			}
			want /= float64(len(samples))
			if got := mc.BER(b, 2, 3, eb); got != want {
				t.Errorf("b=%d eb=%g: BER %v, want %v", b, eb, got, want)
			}
		}
	}
}

// paperGrid is the cogbench paper grid: 96 cells.
var paperGrid = Grid{Ps: []float64{0.01, 0.001}, Bs: []int{1, 2, 4}, Mts: []int{1, 2, 3, 4}, Mrs: []int{1, 2, 3, 4}}

// fmaOffEnv names the file a child of TestMonteCarloTableWithoutFMA,
// running under GODEBUG=cpu.fma=off, writes its table to.
const fmaOffEnv = "EBTABLE_TEST_FMA_OFF_OUT"

// paperTableHex builds the Monte-Carlo table over the cogbench paper
// grid at seed 1 and 20000 samples and renders every cell's value in
// hex, in key order.
func paperTableHex(t *testing.T) string {
	t.Helper()
	tab, err := Build(&MonteCarlo{Samples: 20000, Seed: 1}, paperGrid)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, 0, tab.Len())
	for k := range tab.Vals {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b Key) int {
		return cmp.Or(cmp.Compare(a.PIdx, b.PIdx), cmp.Compare(a.B, b.B), cmp.Compare(a.Mt, b.Mt), cmp.Compare(a.Mr, b.Mr))
	})
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%+v %x\n", k, tab.Vals[k])
	}
	return sb.String()
}

// TestMonteCarloTableWithoutFMA: the Monte-Carlo table does not depend
// on the host's FMA support. The test re-executes itself with
// GODEBUG=cpu.fma=off, as on an amd64 host without FMA; the child
// builds the paper-grid table and runs TestMonteCarloBERMatchesBERAWGN
// against modulation.BERAWGN, and its table must equal this process's
// in every bit.
func TestMonteCarloTableWithoutFMA(t *testing.T) {
	if out := os.Getenv(fmaOffEnv); out != "" {
		if err := os.WriteFile(out, []byte(paperTableHex(t)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("cpu.fma is an amd64 switch")
	}
	out := filepath.Join(t.TempDir(), "table.txt")
	cmd := exec.Command(os.Args[0], "-test.count=1",
		"-test.run=^(TestMonteCarloTableWithoutFMA|TestMonteCarloBERMatchesBERAWGN)$")
	// The child keeps the parent's GODEBUG: os/exec passes on only the
	// last of two GODEBUG entries.
	godebug := strings.TrimPrefix(os.Getenv("GODEBUG")+",cpu.fma=off", ",")
	cmd.Env = append(os.Environ(), fmaOffEnv+"="+out, "GODEBUG="+godebug)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child under cpu.fma=off: %v\n%s", err, msg)
	}
	child, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(child), paperTableHex(t); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("cell %d: %s under cpu.fma=off, %s here", i, gl[i], wl[i])
			}
		}
		t.Fatalf("%d cells under cpu.fma=off, %d here", len(gl), len(wl))
	}
}

// TestMonteCarloRootBrackets: over Rayleigh and Rician K=4, every p, b
// and antenna pair, the MC root brackets the target within ±1e-6
// relative — BER(ēb(1-1e-6)) >= p >= BER(ēb(1+1e-6)) — and agrees within
// 1e-6 with a bisection reference solved to 1e-9.
func TestMonteCarloRootBrackets(t *testing.T) {
	for _, k := range []float64{0, 4} {
		mc := &MonteCarlo{Samples: 500, Seed: 21, RicianK: k}
		for _, p := range []float64{0.1, 0.01, 0.001, 0.0005} {
			for _, b := range []int{1, 2, 4, 8, 16} {
				for mt := 1; mt <= 4; mt++ {
					for mr := 1; mr <= 4; mr++ {
						eb, err := mc.EbBar(p, b, mt, mr)
						if err != nil {
							t.Fatalf("K=%v p=%g b=%d %dx%d: %v", k, p, b, mt, mr, err)
						}
						lo, hi := mc.BER(b, mt, mr, eb*(1-1e-6)), mc.BER(b, mt, mr, eb*(1+1e-6))
						if !(lo >= p && p >= hi) {
							t.Errorf("K=%v p=%g b=%d %dx%d: ēb=%g does not bracket: BER %g .. %g",
								k, p, b, mt, mr, eb, lo, hi)
						}
						ref, err := mathx.BisectLog(func(e float64) float64 { return mc.BER(b, mt, mr, e) - p },
							ebFloor, ebCeiling, 1e-9)
						if err != nil {
							t.Fatal(err)
						}
						if math.Abs(eb/ref-1) > 1e-6 {
							t.Errorf("K=%v p=%g b=%d %dx%d: ēb=%g, bisection %g", k, p, b, mt, mr, eb, ref)
						}
					}
				}
			}
		}
	}
	// So much noise that even the ceiling energy misses the target: the
	// root cannot be bracketed, and the solve must say so.
	loud := &MonteCarlo{Samples: 500, Seed: 21, N0: 1}
	if _, err := loud.EbBar(0.001, 2, 2, 2); !errors.Is(err, mathx.ErrNoBracket) {
		t.Errorf("unbracketable target: err = %v, want ErrNoBracket", err)
	}
}

// TestMonteCarloEvalsPerCell: over the cogbench paper grid at its 20000
// samples, a solve averages at most 14 BER estimates per cell;
// bisection over the same bracket to the same tolerance takes 28.
func TestMonteCarloEvalsPerCell(t *testing.T) {
	mc := &MonteCarlo{Seed: 1}
	tab, err := Build(mc, paperGrid)
	if err != nil {
		t.Fatal(err)
	}
	if perCell := float64(mc.Evals()) / float64(tab.Len()); perCell > 14 {
		t.Errorf("%.2f BER estimates per cell, want at most 14", perCell)
	}
}

// TestMonteCarloDrawsMatchFreshMatrices: the sample set is exactly
// what a fresh matrix per draw gives, for Rayleigh fading (drawn a
// block of samples per fill) and Rician fading (drawn per matrix), at
// sample counts below, at and across the fill block.
func TestMonteCarloDrawsMatchFreshMatrices(t *testing.T) {
	for _, k := range []float64{0, 4} {
		for _, shape := range [][3]int{{3, 2, 500}, {1, 1, 1}, {4, 4, 257}, {2, 1, 256}} {
			mt, mr, n := shape[0], shape[1], shape[2]
			mc := &MonteCarlo{Samples: n, Seed: 11, RicianK: k}
			got := mc.norms(mt, mr)
			rng := mathx.NewRand(11 ^ int64(mt)<<32 ^ int64(mr)<<40)
			for i, h2 := range got {
				var h *mathx.CMat
				if k > 0 {
					h = channel.RicianMatrix(rng, mt, mr, k)
				} else {
					h = channel.Rayleigh(rng, mt, mr)
				}
				if want := h.FrobeniusNorm2(); h2 != want {
					t.Fatalf("K=%v %dx%d sample %d: %v, want %v", k, mt, mr, i, h2, want)
				}
			}
		}
	}
}

// TestMonteCarloDrawAllocs: drawing a fresh (mt, mr) sample set costs a
// fixed number of allocations, whatever the sample count.
func TestMonteCarloDrawAllocs(t *testing.T) {
	allocs := func(samples int) float64 {
		return testing.AllocsPerRun(5, func() {
			(&MonteCarlo{Samples: samples, Seed: 1}).norms(2, 2)
		})
	}
	if small, large := allocs(100), allocs(10000); large > small {
		t.Errorf("allocations grow with samples: %v at 100, %v at 10000", small, large)
	}
}

func TestMonteCarloRicianNeedsLessEnergy(t *testing.T) {
	// A strong line-of-sight component reduces fading margin, so the
	// required ēb drops relative to Rayleigh.
	ray := &MonteCarlo{Samples: 30000, Seed: 5}
	ric := &MonteCarlo{Samples: 30000, Seed: 5, RicianK: 10}
	a, err1 := ray.EbBar(0.001, 1, 1, 1)
	b, err2 := ric.EbBar(0.001, 1, 1, 1)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if b >= a {
		t.Errorf("Rician ēb %g should be below Rayleigh %g", b, a)
	}
}

func TestBuildAndLookup(t *testing.T) {
	grid := Grid{
		Ps:  []float64{0.01, 0.001},
		Bs:  []int{1, 2, 4},
		Mts: []int{1, 2},
		Mrs: []int{1, 3},
	}
	tab, err := Build(Analytic{}, grid)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2*3*2*2 {
		t.Errorf("Len = %d, want 24", tab.Len())
	}
	// Lookup matches the live solver.
	want, _ := Analytic{}.EbBar(0.001, 2, 2, 3)
	got, err := tab.EbBar(0.001, 2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("table %g vs solver %g", got, want)
	}
	// Near-miss p within 1% tolerance resolves to the grid point.
	if _, err := tab.EbBar(0.001002, 2, 2, 3); err != nil {
		t.Errorf("1%% tolerance lookup failed: %v", err)
	}
	// Off-grid p fails.
	if _, err := tab.EbBar(0.5, 2, 2, 3); err == nil {
		t.Error("off-grid p should fail")
	}
	// Off-grid b fails.
	if _, err := tab.EbBar(0.001, 3, 2, 3); err == nil {
		t.Error("off-grid b should fail")
	}
}

func TestBuildSkipsSaturatedCells(t *testing.T) {
	grid := Grid{
		Ps:  []float64{0.2}, // unreachable for b=16 (caps at ~0.125)
		Bs:  []int{1, 16},
		Mts: []int{1},
		Mrs: []int{1},
	}
	tab, err := Build(Analytic{}, grid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.EbBar(0.2, 1, 1, 1); err != nil {
		t.Errorf("reachable cell missing: %v", err)
	}
	if _, err := tab.EbBar(0.2, 16, 1, 1); err == nil {
		t.Error("saturated cell should be absent")
	}
}

func TestBuildValidatesGrid(t *testing.T) {
	if _, err := Build(Analytic{}, Grid{}); err == nil {
		t.Error("empty grid should fail")
	}
	if _, err := Build(Analytic{}, Grid{Ps: []float64{2}, Bs: []int{1}, Mts: []int{1}, Mrs: []int{1}}); err == nil {
		t.Error("invalid p should fail")
	}
}

func TestMinOverB(t *testing.T) {
	tab, err := Build(Analytic{}, Grid{
		Ps:  []float64{0.001},
		Bs:  []int{1, 2, 4, 8},
		Mts: []int{2},
		Mrs: []int{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, eb, err := tab.MinOverB(0.001, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, bb := range []int{1, 2, 4, 8} {
		v, _ := tab.EbBar(0.001, bb, 2, 2)
		if v < eb {
			t.Errorf("MinOverB picked b=%d (%g) but b=%d gives %g", b, eb, bb, v)
		}
	}
	if _, _, err := tab.MinOverB(0.001, 7, 7); err == nil {
		t.Error("off-grid antennas should fail")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tab, err := Build(Analytic{}, Grid{
		Ps:  []float64{0.005, 0.0005},
		Bs:  []int{1, 2},
		Mts: []int{1, 2},
		Mrs: []int{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tab.Len() {
		t.Fatalf("Len %d vs %d", back.Len(), tab.Len())
	}
	for k, v := range tab.Vals {
		if back.Vals[k] != v {
			t.Errorf("cell %+v: %g vs %g", k, back.Vals[k], v)
		}
	}
	// Corrupt stream fails cleanly.
	if _, err := Load(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Error("garbage stream should fail")
	}
}

func TestSaveLoadFile(t *testing.T) {
	tab, err := Build(Analytic{}, Grid{
		Ps: []float64{0.001}, Bs: []int{2}, Mts: []int{1}, Mrs: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/eb.gob"
	if err := tab.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 1 {
		t.Errorf("Len = %d", back.Len())
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Error("missing file should fail")
	}
}

// TestQPSKEquivalence cross-checks AnalyticBER against the independent
// closed form in modulation: for b<=2 the expression is exactly BPSK
// with L-branch MRC.
func TestQPSKEquivalence(t *testing.T) {
	for _, eb := range []float64{1e-20, 1e-19, 1e-18} {
		got := AnalyticBER(2, 2, 2, eb, DefaultN0, ConvPaper)
		want := modulation.BERRayleighMRC(4, eb/(2*DefaultN0))
		if math.Abs(got/want-1) > 1e-12 {
			t.Errorf("eb=%g: %g vs %g", eb, got, want)
		}
	}
}

func TestConventions(t *testing.T) {
	// Under ConvArray the solved ēb is exactly the ConvPaper value
	// divided by mt (the SNR expressions differ by that factor alone).
	paper := Analytic{}
	array := Analytic{Convention: ConvArray}
	for _, mt := range []int{1, 2, 3, 4} {
		a, err := paper.EbBar(0.001, 2, mt, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := array.EbBar(0.001, 2, mt, 2)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(b*float64(mt)/a-1) > 1e-6 {
			t.Errorf("mt=%d: array %g * mt != paper %g", mt, b, a)
		}
	}
	// Monte Carlo honours the convention the same way.
	mcPaper := &MonteCarlo{Samples: 20000, Seed: 3}
	mcArray := &MonteCarlo{Samples: 20000, Seed: 3, Convention: ConvArray}
	a, err1 := mcPaper.EbBar(0.005, 2, 3, 1)
	b, err2 := mcArray.EbBar(0.005, 2, 3, 1)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if math.Abs(b*3/a-1) > 1e-3 {
		t.Errorf("MC conventions differ: %g vs %g", a, b)
	}
}

func TestBuildWithMonteCarloSolver(t *testing.T) {
	grid := Grid{
		Ps: []float64{0.005}, Bs: []int{1, 2}, Mts: []int{1, 2}, Mrs: []int{1},
	}
	tab, err := Build(&MonteCarlo{Samples: 8000, Seed: 17}, grid)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 4 {
		t.Fatalf("Len = %d", tab.Len())
	}
	// Cells track the analytic values.
	for _, b := range []int{1, 2} {
		got, err := tab.EbBar(0.005, b, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := Analytic{}.EbBar(0.005, b, 2, 1)
		if math.Abs(got/want-1) > 0.15 {
			t.Errorf("b=%d: MC table %g vs analytic %g", b, got, want)
		}
	}
}
