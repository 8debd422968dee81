package modulation

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

func TestNewValidation(t *testing.T) {
	for _, b := range []int{0, -1, 17} {
		if _, err := New(b); err == nil {
			t.Errorf("New(%d) should fail", b)
		}
	}
	for b := 1; b <= 16; b++ {
		s, err := New(b)
		if err != nil {
			t.Fatalf("New(%d): %v", b, err)
		}
		if s.BitsPerSymbol != b {
			t.Errorf("BitsPerSymbol = %d, want %d", s.BitsPerSymbol, b)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(0) should panic")
		}
	}()
	MustNew(0)
}

func TestModulateRoundTrip(t *testing.T) {
	rng := mathx.NewRand(31)
	for b := 1; b <= 16; b++ {
		s := MustNew(b)
		bits := randBits(rng, 64*b)
		syms, err := s.Modulate(bits)
		if err != nil {
			t.Fatalf("b=%d: %v", b, err)
		}
		if len(syms) != 64 {
			t.Fatalf("b=%d: %d symbols", b, len(syms))
		}
		back := s.Demodulate(syms)
		for i := range bits {
			if bits[i] != back[i] {
				t.Fatalf("b=%d: bit %d corrupted without noise", b, i)
			}
		}
	}
}

func TestModulateLengthError(t *testing.T) {
	s := MustNew(3)
	if _, err := s.Modulate(make([]byte, 4)); err == nil {
		t.Error("non-multiple length should error")
	}
}

func TestUnitAverageEnergy(t *testing.T) {
	rng := mathx.NewRand(32)
	for b := 1; b <= 10; b++ {
		s := MustNew(b)
		bits := randBits(rng, 20000*b)
		syms, _ := s.Modulate(bits)
		var e mathx.Running
		for _, y := range syms {
			e.Add(real(y)*real(y) + imag(y)*imag(y))
		}
		if math.Abs(e.Mean()-1) > 0.02 {
			t.Errorf("b=%d: mean symbol energy = %v, want 1", b, e.Mean())
		}
	}
}

func TestBPSKIsReal(t *testing.T) {
	s := MustNew(1)
	for _, bit := range []byte{0, 1} {
		y := s.MapSymbol([]byte{bit})
		if imag(y) != 0 {
			t.Errorf("BPSK symbol has imaginary part: %v", y)
		}
		if math.Abs(real(y))-1 > 1e-12 {
			t.Errorf("BPSK symbol magnitude = %v", real(y))
		}
	}
	// The two symbols must be antipodal.
	if s.MapSymbol([]byte{0}) != -s.MapSymbol([]byte{1}) {
		t.Error("BPSK not antipodal")
	}
}

func TestGrayNeighbours(t *testing.T) {
	// Gray code: adjacent indices differ in exactly one bit.
	for v := uint(0); v < 63; v++ {
		d := grayEncode(v) ^ grayEncode(v+1)
		if popcount(d) != 1 {
			t.Fatalf("gray(%d) and gray(%d) differ in %d bits", v, v+1, popcount(d))
		}
	}
	// Decode inverts encode.
	f := func(v uint16) bool {
		return grayDecode(grayEncode(uint(v))) == uint(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func popcount(v uint) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

func TestDecisionClamping(t *testing.T) {
	s := MustNew(2)
	buf := make([]byte, 2)
	// Far outside the constellation still decides the nearest corner.
	s.DecideSymbol(complex(1e6, -1e6), buf)
	y := s.MapSymbol(buf)
	if real(y) < 0 || imag(y) > 0 {
		t.Errorf("clamped decision wrong corner: %v", y)
	}
}

// roundedDecide is pamDecide as the rounded int conversion wrote it,
// clamped after the conversion. It is the reference for finite inputs
// whose grid position stays below 2^63 in magnitude, where the
// conversion is defined.
func roundedDecide(x float64, l int) uint {
	idx := int(math.Round((x + float64(l-1)) / 2))
	if idx < 0 {
		idx = 0
	}
	if idx > l-1 {
		idx = l - 1
	}
	return uint(idx)
}

// TestPamDecideMatchesRounding pins the float-clamped decision to the
// rounded conversion on every finite input the conversion defines:
// random values over many magnitudes, and the decision boundaries
// x = 2k−L with their one-ulp neighbours, for every rail size a
// scheme uses up to 16 levels.
func TestPamDecideMatchesRounding(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, l := range []int{2, 4, 8, 16} {
		check := func(x float64) {
			t.Helper()
			if got, want := pamDecide(x, l), roundedDecide(x, l); got != want {
				t.Fatalf("L=%d x=%v: pamDecide %d, rounded %d", l, x, got, want)
			}
		}
		for k := -2; k <= l+2; k++ {
			x := float64(2*k - l)
			for _, v := range []float64{x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1))} {
				check(v)
				check(v + 1) // level centres
			}
		}
		for i := 0; i < 200000; i++ {
			x := rng.NormFloat64() * math.Ldexp(1, rng.Intn(130)-66)
			if math.Abs(x) < math.Ldexp(1, 63) {
				check(x)
			}
		}
		check(0)
		check(math.Copysign(0, -1))
		check(math.SmallestNonzeroFloat64)
		check(-math.SmallestNonzeroFloat64)
		check(math.Ldexp(1, 62))
		check(-math.Ldexp(1, 62))
	}
}

// TestPamDecideOutOfRange pins the decisions the int conversion left to
// the architecture: NaN decides the bottom level, and +Inf and positions
// past 2^63 the top one, on every GOARCH.
func TestPamDecideOutOfRange(t *testing.T) {
	for _, l := range []int{2, 4, 8, 16, 256} {
		top := uint(l - 1)
		for _, c := range []struct {
			x    float64
			want uint
		}{
			{math.NaN(), 0},
			{math.Inf(1), top},
			{math.Inf(-1), 0},
			{1e19, top},
			{-1e19, 0},
			{math.Ldexp(1, 64), top},
			{math.MaxFloat64, top},
			{-math.MaxFloat64, 0},
		} {
			if got := pamDecide(c.x, l); got != c.want {
				t.Errorf("L=%d: pamDecide(%v) = %d, want %d", l, c.x, got, c.want)
			}
		}
	}
}

// TestQPSKBERMatchesTheory sends QPSK through AWGN and compares the
// simulated BER to eq. (5): for b=2 the formula reduces to Q(sqrt(2*gb)).
func TestQPSKBERMatchesTheory(t *testing.T) {
	rng := mathx.NewRand(33)
	s := MustNew(2)
	for _, snrDB := range []float64{0, 4, 8} {
		gb := math.Pow(10, snrDB/10)
		// Es = b*Eb => noise variance per symbol = 1/(b*gb) for unit Es.
		n0 := 1 / (float64(s.BitsPerSymbol) * gb)
		const nBits = 400000
		bits := randBits(rng, nBits)
		syms, _ := s.Modulate(bits)
		for i := range syms {
			syms[i] += complex(rng.NormFloat64()*math.Sqrt(n0/2), rng.NormFloat64()*math.Sqrt(n0/2))
		}
		got := berOf(bits, s.Demodulate(syms))
		want := BERAWGN(2, gb)
		if math.Abs(got-want) > 0.15*want+1e-5 {
			t.Errorf("snr=%v dB: simulated BER %v vs theory %v", snrDB, got, want)
		}
	}
}

// Test16QAMBERMatchesTheory validates the Gray-mapped 16-QAM rail design
// against the paper's b=4 approximation.
func Test16QAMBERMatchesTheory(t *testing.T) {
	rng := mathx.NewRand(34)
	s := MustNew(4)
	for _, snrDB := range []float64{6, 10} {
		gb := math.Pow(10, snrDB/10)
		n0 := 1 / (float64(4) * gb)
		const nBits = 400000
		bits := randBits(rng, nBits)
		syms, _ := s.Modulate(bits)
		for i := range syms {
			syms[i] += complex(rng.NormFloat64()*math.Sqrt(n0/2), rng.NormFloat64()*math.Sqrt(n0/2))
		}
		got := berOf(bits, s.Demodulate(syms))
		want := BERAWGN(4, gb)
		// The paper's expression is a nearest-neighbour approximation;
		// allow 20%.
		if math.Abs(got-want) > 0.2*want+1e-5 {
			t.Errorf("snr=%v dB: simulated BER %v vs theory %v", snrDB, got, want)
		}
	}
}

func randBits(rng *rand.Rand, n int) []byte {
	bits := make([]byte, n)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	return bits
}

func berOf(sent, got []byte) float64 {
	errs := 0
	for i := range sent {
		if sent[i] != got[i] {
			errs++
		}
	}
	return float64(errs) / float64(len(sent))
}
