package mathx

import (
	"math"
	"math/rand"
	"testing"
)

// wedgeExact is NormFloat64's wedge test as the standard library
// writes it: the decision wedgeAccept must reproduce.
func wedgeExact(i int32, x, u float64) bool {
	return fn[i]+float32(u)*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x))
}

// boundaryUniforms returns uniforms whose left side lands on and next
// to the wedge test's decision boundary for x in strip i: float32(u) at
// the solution of fn[i]+u·(fn[i-1]−fn[i]) = float32(exp(−x²/2)) and its
// three float32 neighbours on either side, within [0, 1).
func boundaryUniforms(i int32, x float64) []float64 {
	r := float32(math.Exp(-.5 * x * x))
	u0 := (r - fn[i]) / (fn[i-1] - fn[i])
	var us []float64
	for _, start := range []float32{u0, math.Nextafter32(u0, 2)} {
		lo, hi := start, start
		for k := 0; k < 3; k++ {
			us = append(us, float64(lo), float64(hi))
			lo, hi = math.Nextafter32(lo, -1), math.Nextafter32(hi, 2)
		}
	}
	var in []float64
	for _, u := range us {
		if u >= 0 && u < 1 {
			in = append(in, u)
		}
	}
	return in
}

// TestWedgeSqueezeExact holds the squeezed wedge test to the exact one
// on every strip, at the ends of its |j| range (kn[i], kn[i]+1, 2³¹−1
// and MinInt32, of either sign) and at random interior |j|, with random
// uniforms and uniforms at the float32 neighbours of the decision
// boundary. For every x it also requires z = −x²/2 inside the strip's
// interval and lo ≤ math.Exp(z) ≤ hi, the property the squeeze's
// exactness rests on. Stream tests reach too few boundary cases to
// show either.
func TestWedgeSqueezeExact(t *testing.T) {
	meta := rand.New(rand.NewSource(20261018))
	var cases, exps int
	for i := int32(1); i < 128; i++ {
		js := []int32{int32(kn[i]), int32(kn[i]) + 1, math.MaxInt32, math.MinInt32}
		for k := 0; k < 64; k++ {
			js = append(js, int32(kn[i])+int32(meta.Int63n(int64(math.MaxInt32-kn[i])+1)))
		}
		for _, j := range js {
			for _, sj := range []int32{j, -j} {
				x := float64(sj) * float64(wn[i])
				z := -.5 * x * x
				lo, hi, ok := wedgeSqueezes[i].bounds(z)
				if e := math.Exp(z); !ok || lo > e || e > hi {
					t.Fatalf("strip %d, j %d: z %v, bounds %v ≤ %v ≤ %v (in interval: %v)", i, sj, z, lo, e, hi, ok)
				}
				us := boundaryUniforms(i, x)
				for k := 0; k < 16; k++ {
					us = append(us, meta.Float64())
				}
				for _, u := range us {
					cases++
					if l := fn[i] + float32(u)*(fn[i-1]-fn[i]); float32(lo) <= l && l < float32(hi) {
						exps++
					}
					if g, w := wedgeAccept(i, x, u), wedgeExact(i, x, u); g != w {
						t.Fatalf("strip %d, j %d, u %v: squeezed test says %v, exact %v", i, sj, u, g, w)
					}
				}
			}
		}
	}
	t.Logf("%d cases, %d left to math.Exp", cases, exps)
}
