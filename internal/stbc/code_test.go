package stbc

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/channel"
	"repro/internal/mathx"
	"repro/internal/modulation"
)

func allCodes() []*Code {
	return []*Code{SISO(), Alamouti(), OSTBC3(), OSTBC4()}
}

func TestCodeMetadata(t *testing.T) {
	cases := []struct {
		c         *Code
		nt, k, tl int
		rate      float64
	}{
		{SISO(), 1, 1, 1, 1},
		{Alamouti(), 2, 2, 2, 1},
		{OSTBC3(), 3, 3, 4, 0.75},
		{OSTBC4(), 4, 3, 4, 0.75},
	}
	for _, c := range cases {
		if c.c.Nt() != c.nt || c.c.BlockSymbols() != c.k || c.c.BlockLen() != c.tl {
			t.Errorf("%s: nt=%d k=%d T=%d", c.c.Name(), c.c.Nt(), c.c.BlockSymbols(), c.c.BlockLen())
		}
		if math.Abs(c.c.Rate()-c.rate) > 1e-15 {
			t.Errorf("%s: rate=%v want %v", c.c.Name(), c.c.Rate(), c.rate)
		}
	}
}

func TestForTransmitters(t *testing.T) {
	for mt := 1; mt <= 4; mt++ {
		c, err := ForTransmitters(mt)
		if err != nil {
			t.Fatalf("mt=%d: %v", mt, err)
		}
		if c.Nt() != mt {
			t.Errorf("mt=%d: got code with %d antennas", mt, c.Nt())
		}
	}
	if _, err := ForTransmitters(5); err == nil {
		t.Error("mt=5 should error")
	}
	if _, err := ForTransmitters(0); err == nil {
		t.Error("mt=0 should error")
	}
}

// TestOrthogonality verifies X^H X = (sum |s_k|^2) I for random symbol
// blocks — the defining property of a complex orthogonal design and the
// reason matched filtering is ML.
func TestOrthogonality(t *testing.T) {
	rng := mathx.NewRand(51)
	for _, c := range allCodes() {
		for trial := 0; trial < 50; trial++ {
			syms := make([]complex128, c.BlockSymbols())
			var e float64
			for i := range syms {
				syms[i] = mathx.ComplexCN(rng, 1)
				e += real(syms[i])*real(syms[i]) + imag(syms[i])*imag(syms[i])
			}
			x := c.Encode(syms)
			g := x.ConjTranspose().Mul(x)
			for i := 0; i < c.Nt(); i++ {
				for j := 0; j < c.Nt(); j++ {
					want := complex(0, 0)
					if i == j {
						want = complex(e, 0)
					}
					if cmplx.Abs(g.At(i, j)-want) > 1e-9 {
						t.Fatalf("%s: X^H X [%d][%d] = %v, want %v", c.Name(), i, j, g.At(i, j), want)
					}
				}
			}
		}
	}
}

// TestNoiselessRoundTrip checks Decode(Transmit(Encode(s))) == s for
// every code and a spread of receive antenna counts.
func TestNoiselessRoundTrip(t *testing.T) {
	rng := mathx.NewRand(52)
	for _, c := range allCodes() {
		for mr := 1; mr <= 4; mr++ {
			for trial := 0; trial < 20; trial++ {
				syms := make([]complex128, c.BlockSymbols())
				for i := range syms {
					syms[i] = mathx.ComplexCN(rng, 1)
				}
				h := channel.RayleighInto(rng, c.Nt(), mr, nil)
				y := c.Transmit(c.Encode(syms), h)
				got := c.Decode(y, h)
				for i := range syms {
					if cmplx.Abs(got[i]-syms[i]) > 1e-9 {
						t.Fatalf("%s mr=%d: sym %d decoded %v, want %v", c.Name(), mr, i, got[i], syms[i])
					}
				}
			}
		}
	}
}

func TestEncodePanicsOnWrongBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Encode with wrong block size should panic")
		}
	}()
	Alamouti().Encode([]complex128{1})
}

func TestDecodePanicsOnWrongBlockLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Decode with wrong block length should panic")
		}
	}()
	h := mathx.NewCMat(1, 2)
	Alamouti().Decode(mathx.NewCMat(3, 1), h)
}

func TestTransmitPanicsOnChannelMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Transmit with mismatched channel should panic")
		}
	}()
	c := Alamouti()
	x := c.Encode([]complex128{1, 1i})
	c.Transmit(x, mathx.NewCMat(1, 3))
}

// TestAlamoutiDiversityOrder sends BPSK over Alamouti 2x1 in Rayleigh
// fading and checks the measured BER against the equivalent 2-branch MRC
// closed form: Alamouti 2x1 at total SNR g performs like 2-branch MRC
// with g/2 per branch.
func TestAlamoutiDiversityOrder(t *testing.T) {
	rng := mathx.NewRand(53)
	mod := modulation.MustNew(1)
	c := Alamouti()
	for _, snrDB := range []float64{8, 12} {
		gb := math.Pow(10, snrDB/10)
		// Each antenna transmits at half power so the total is fixed.
		n0 := 1 / gb
		errs, bits := 0, 0
		for blk := 0; blk < 60000; blk++ {
			h := channel.RayleighInto(rng, 2, 1, nil)
			b := []byte{byte(rng.Intn(2)), byte(rng.Intn(2))}
			syms, _ := mod.Modulate(b)
			for i := range syms {
				syms[i] *= complex(math.Sqrt(0.5), 0)
			}
			y := c.Transmit(c.Encode(syms), h)
			channel.AWGN(rng, y.Data, n0)
			est := c.Decode(y, h)
			got := mod.Demodulate(est)
			for i := range b {
				bits++
				if b[i] != got[i] {
					errs++
				}
			}
		}
		got := float64(errs) / float64(bits)
		want := modulation.BERRayleighMRC(2, gb/2)
		if math.Abs(got-want) > 0.25*want+1e-5 {
			t.Errorf("snr=%v dB: Alamouti BER %v vs MRC(2, g/2) %v", snrDB, got, want)
		}
	}
}

// TestOSTBCBeatsSISO confirms the diversity benefit that motivates the
// whole paper: at equal total transmit energy, more cooperative antennas
// give strictly lower Rayleigh BER.
func TestOSTBCBeatsSISO(t *testing.T) {
	rng := mathx.NewRand(54)
	mod := modulation.MustNew(1)
	const snrDB = 10.0
	gb := math.Pow(10, snrDB/10)
	ber := func(c *Code) float64 {
		n0 := 1 / gb
		scale := complex(math.Sqrt(1/float64(c.Nt())), 0)
		errs, bits := 0, 0
		for blk := 0; blk < 30000; blk++ {
			h := channel.RayleighInto(rng, c.Nt(), 1, nil)
			b := make([]byte, c.BlockSymbols())
			for i := range b {
				b[i] = byte(rng.Intn(2))
			}
			syms, _ := mod.Modulate(b)
			for i := range syms {
				syms[i] *= scale
			}
			y := c.Transmit(c.Encode(syms), h)
			channel.AWGN(rng, y.Data, n0)
			got := mod.Demodulate(c.Decode(y, h))
			for i := range b {
				bits++
				if b[i] != got[i] {
					errs++
				}
			}
		}
		return float64(errs) / float64(bits)
	}
	siso := ber(SISO())
	ala := ber(Alamouti())
	o4 := ber(OSTBC4())
	if !(siso > 2*ala) {
		t.Errorf("Alamouti should be far below SISO: %v vs %v", ala, siso)
	}
	if !(ala > o4) {
		t.Errorf("OSTBC4 should beat Alamouti: %v vs %v", o4, ala)
	}
}
