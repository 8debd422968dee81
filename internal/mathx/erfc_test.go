package mathx

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
)

// sameBits reports bitwise equality, with every NaN equal to every
// other: Erfc returns a canonical NaN, Exp its argument's, and the
// contract covers the class, not the payload.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// withNeighbours returns each of xs with its ±1-ulp neighbours, and
// the negations of all of them.
func withNeighbours(xs ...float64) []float64 {
	var out []float64
	for _, x := range xs {
		for _, v := range []float64{math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1))} {
			out = append(out, v, -v)
		}
	}
	return out
}

// laneEdges are the arguments where Erfc changes path, each with its
// ±1-ulp neighbours and of either sign: every range boundary, the
// start of subnormal results (26.55) and of zero ones (27.23), the
// smallest and largest magnitudes, and the special values.
func laneEdges() []float64 {
	xs := withNeighbours(erfcTiny, 0.25, 0.84375, 1.25, 1/0.35, 6, 28, 1, 0.5,
		26.55, 27.23, math.SmallestNonzeroFloat64, 0x1p-1022, math.MaxFloat64)
	return append(xs, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0xfff8000000000123), math.Float64frombits(0x7ff0000000000001))
}

// erfcEdges are laneEdges plus a sweep of [26, 28), where the result is
// subnormal or zero.
func erfcEdges() []float64 {
	xs := laneEdges()
	for x := 26.0; x < 28; x += 1.0 / 512 {
		xs = append(xs, x, math.Nextafter(x, 30))
	}
	return xs
}

// expEdges are Exp's: around overflow (709.78…), where results turn
// subnormal (-708.4) and underflow (-745.13), below -2³¹/log₂e where
// the exponent conversion saturates, ties of x·log₂e, and the special
// values.
func expEdges() []float64 {
	xs := withNeighbours(expOverflow, 709, 708.3964185322641, 745.1332191019411,
		745.1332191019412, 744.4400719213812, 708, 1, 0.5, 1e-300,
		math.SmallestNonzeroFloat64, math.MaxFloat64, 1e300,
		-math.MinInt32/expLog2e, 2*-math.MinInt32/expLog2e)
	for k := -1080.0; k < 1030; k += 7 {
		// x·log₂e near k + 1/2: the conversion's tie.
		xs = append(xs, (k+0.5)/expLog2e, math.Nextafter((k+0.5)/expLog2e, 0))
	}
	return append(xs, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0xfff8000000000123), math.Float64frombits(0x7ff0000000000001))
}

// randomArgs returns n arguments, half uniform on [lo, hi) and half
// arbitrary bit patterns.
func randomArgs(seed int64, n int, lo, hi float64) []float64 {
	r := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		if i%2 == 0 {
			xs[i] = lo + (hi-lo)*r.Float64()
		} else {
			xs[i] = math.Float64frombits(r.Uint64())
		}
	}
	return xs
}

// fmaOffEnv marks a re-executed test binary running under
// GODEBUG=cpu.fma=off.
const fmaOffEnv = "MATHX_TEST_FMA_OFF"

// TestExpErfcMatchStdlibWithoutFMA pins the portable definitions: with
// Go's FMA path off, as on an amd64 host without FMA, Exp and Erfc
// equal math.Exp and math.Erfc bit for bit over their edges and 10⁶
// random arguments each. The test re-executes itself with
// GODEBUG=cpu.fma=off; the child makes the comparison.
func TestExpErfcMatchStdlibWithoutFMA(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("math.Exp runs the SLEEF method only on amd64")
	}
	if os.Getenv(fmaOffEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestExpErfcMatchStdlibWithoutFMA$", "-test.count=1")
		// The child keeps the parent's GODEBUG: os/exec passes on only
		// the last of two GODEBUG entries.
		godebug := strings.TrimPrefix(os.Getenv("GODEBUG")+",cpu.fma=off", ",")
		cmd.Env = append(os.Environ(), fmaOffEnv+"=1", "GODEBUG="+godebug)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child under cpu.fma=off: %v\n%s", err, out)
		}
		return
	}
	check := func(name string, f, std func(float64) float64, xs []float64) {
		bad := 0
		for _, x := range xs {
			if got, want := f(x), std(x); !sameBits(got, want) {
				if bad++; bad <= 5 {
					t.Errorf("%s(%v = %#x) = %#x, math %#x", name, x, math.Float64bits(x),
						math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d of %d arguments differ", name, bad, len(xs))
		}
	}
	check("Exp", Exp, math.Exp, expEdges())
	check("Exp", Exp, math.Exp, randomArgs(1, 1e6, -760, 720))
	check("Erfc", Erfc, math.Erfc, erfcEdges())
	check("Erfc", Erfc, math.Erfc, randomArgs(2, 1e6, -7, 30))
}

// TestExpErfcNearStdlib checks the ports in-process, whatever path
// math.Exp takes here: infinities and NaNs exact, other results within
// one ulp of math.Exp and within 4e-16 relative (or four subnormal
// steps) of math.Erfc.
func TestExpErfcNearStdlib(t *testing.T) {
	ulp := func(v float64) float64 { return math.Nextafter(math.Abs(v), math.Inf(1)) - math.Abs(v) }
	for _, x := range append(expEdges(), randomArgs(3, 20000, -760, 720)...) {
		got, want := Exp(x), math.Exp(x)
		if sameBits(got, want) {
			continue
		}
		if math.IsInf(want, 0) || want != want || !(math.Abs(got-want) <= ulp(want)) {
			t.Errorf("Exp(%v) = %v, math %v", x, got, want)
		}
	}
	for _, x := range append(erfcEdges(), randomArgs(4, 20000, -7, 30)...) {
		got, want := Erfc(x), math.Erfc(x)
		if !sameBits(got, want) && !(math.Abs(got-want) <= 4e-16*want+4*math.SmallestNonzeroFloat64) {
			t.Errorf("Erfc(%v) = %v, math %v", x, got, want)
		}
	}
}

// TestErfcIntoMatchesErfc: ErfcInto, on the vector kernel where the
// host has it and on the loop, equals Erfc element by element over the
// edges and random arguments, at every length up to 41, in place and
// out of place.
func TestErfcIntoMatchesErfc(t *testing.T) {
	xs := append(erfcEdges(), randomArgs(5, 4000, -7, 30)...)
	rand.New(rand.NewSource(6)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, vector := range []bool{false, HasAVX2()} {
		for n := 0; n <= 41; n++ {
			for lo := 0; lo+n <= len(xs); lo += 97 {
				checkErfcInto(t, xs[lo:lo+n], vector)
			}
		}
		checkErfcInto(t, xs, vector)
	}
}

// checkErfcInto runs erfcInto on src out of place and in place and
// fails at the first element that differs from Erfc.
func checkErfcInto(t testing.TB, src []float64, vector bool) {
	t.Helper()
	dst := make([]float64, len(src)+1)
	dst[len(src)] = 42
	erfcInto(dst, src, vector)
	inPlace := append([]float64(nil), src...)
	erfcInto(inPlace, inPlace, vector)
	for i, x := range src {
		want := Erfc(x)
		if !sameBits(dst[i], want) || !sameBits(inPlace[i], want) {
			t.Fatalf("vector=%v len %d: element %d, Erfc(%v = %#x): %#x (in place %#x), want %#x",
				vector, len(src), i, x, math.Float64bits(x), math.Float64bits(dst[i]),
				math.Float64bits(inPlace[i]), math.Float64bits(want))
		}
	}
	if dst[len(src)] != 42 {
		t.Fatalf("vector=%v len %d: wrote past len(src)", vector, len(src))
	}
}

// FuzzErfcLanes compares the AVX2 kernel with scalar Erfc on arbitrary
// lanes of 0 to 13 elements: a byte below 0x80 picks one of laneEdges
// (range boundaries and their neighbours, signed zeros, subnormals,
// NaN payloads, infinities), any other byte takes the next eight bytes
// as a float64's raw bits. It skips on hosts without AVX2.
func FuzzErfcLanes(f *testing.F) {
	if !HasAVX2() {
		f.Skip("no AVX2 kernel on this host")
	}
	edges := laneEdges()
	for _, seed := range [][]byte{nil, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13},
		{0x80, 0, 0, 0, 0, 0, 0, 0x3a, 0x40, 7, 0x7f}} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var src []float64
		for pos := 0; len(src) < 13 && pos < len(data); {
			b := data[pos]
			pos++
			if b >= 0x80 && pos+8 <= len(data) {
				src = append(src, math.Float64frombits(binary.LittleEndian.Uint64(data[pos:])))
				pos += 8
				continue
			}
			// Odd lengths shift the pick by 128, so every edge is reachable.
			src = append(src, edges[(int(b)+128*(len(src)%2))%len(edges)])
		}
		checkErfcInto(t, src, true)
	})
}
