package stbc

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/channel"
	"repro/internal/mathx"
	"repro/internal/modulation"
)

func TestMRCUnbiasedNoiseless(t *testing.T) {
	rng := mathx.NewRand(61)
	for trial := 0; trial < 100; trial++ {
		s := mathx.ComplexCN(rng, 1)
		h := []complex128{mathx.ComplexCN(rng, 1), mathx.ComplexCN(rng, 1), mathx.ComplexCN(rng, 1)}
		y := make([]complex128, len(h))
		for j := range h {
			y[j] = h[j] * s
		}
		if got := MRC(y, h); cmplx.Abs(got-s) > 1e-9 {
			t.Fatalf("MRC biased: %v vs %v", got, s)
		}
	}
}

func TestCombinersDegenerate(t *testing.T) {
	if MRC([]complex128{1}, []complex128{0}) != 0 {
		t.Error("MRC with zero channel should return 0")
	}
}

func TestCombinersPanicOnMismatch(t *testing.T) {
	for name, f := range map[string]func(){
		"MRC": func() { MRC(make([]complex128, 2), make([]complex128, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic on length mismatch", name)
				}
			}()
			f()
		}()
	}
}

// TestCombinerHierarchy measures BPSK BER over 1x3 Rayleigh SIMO: MRC
// must beat a single branch and match the 3-branch closed form.
func TestCombinerHierarchy(t *testing.T) {
	rng := mathx.NewRand(62)
	const snrDB = 6.0
	gb := math.Pow(10, snrDB/10)
	n0 := 1 / gb
	mod := modulation.MustNew(1)
	const trials = 150000
	var errMRC, errSingle int
	for i := 0; i < trials; i++ {
		bit := []byte{byte(rng.Intn(2))}
		s, _ := mod.Modulate(bit)
		h := []complex128{mathx.ComplexCN(rng, 1), mathx.ComplexCN(rng, 1), mathx.ComplexCN(rng, 1)}
		y := make([]complex128, 3)
		for j := range y {
			y[j] = h[j] * s[0]
		}
		channel.AWGN(rng, y, n0)
		decide := func(z complex128) bool {
			return mod.Demodulate([]complex128{z})[0] != bit[0]
		}
		if decide(MRC(y, h)) {
			errMRC++
		}
		if decide(y[0] / h[0]) {
			errSingle++
		}
	}
	if errMRC >= errSingle {
		t.Errorf("MRC (%d errors) should beat a single branch (%d)", errMRC, errSingle)
	}
	// MRC should match the 3-branch closed form.
	got := float64(errMRC) / trials
	want := modulation.BERRayleighMRC(3, gb)
	if math.Abs(got-want) > 0.25*want+1e-5 {
		t.Errorf("MRC BER %v vs closed form %v", got, want)
	}
}
