package stbc

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/channel"
	"repro/internal/mathx"
)

func TestHalfRateMetadata(t *testing.T) {
	g3 := G3Half()
	if g3.Nt() != 3 || g3.BlockSymbols() != 4 || g3.BlockLen() != 8 {
		t.Errorf("G3: nt=%d k=%d T=%d", g3.Nt(), g3.BlockSymbols(), g3.BlockLen())
	}
	if g3.Rate() != 0.5 {
		t.Errorf("G3 rate = %v", g3.Rate())
	}
	g4 := G4Half()
	if g4.Nt() != 4 || g4.BlockSymbols() != 4 || g4.BlockLen() != 8 {
		t.Errorf("G4: nt=%d k=%d T=%d", g4.Nt(), g4.BlockSymbols(), g4.BlockLen())
	}
	if g4.Rate() != 0.5 {
		t.Errorf("G4 rate = %v", g4.Rate())
	}
}

// TestHalfRateOrthogonality: X^H X = 2 (sum |s_k|^2) I for the
// half-rate designs (the factor 2 because every symbol appears twice,
// once plain and once conjugated).
func TestHalfRateOrthogonality(t *testing.T) {
	rng := mathx.NewRand(211)
	for _, c := range []*Code{G3Half(), G4Half()} {
		for trial := 0; trial < 30; trial++ {
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
						want = complex(2*e, 0)
					}
					if cmplx.Abs(g.At(i, j)-want) > 1e-9 {
						t.Fatalf("%s: X^H X[%d][%d] = %v, want %v", c.Name(), i, j, g.At(i, j), want)
					}
				}
			}
		}
	}
}

func TestHalfRateNoiselessRoundTrip(t *testing.T) {
	rng := mathx.NewRand(212)
	for _, c := range []*Code{G3Half(), G4Half()} {
		for mr := 1; mr <= 3; mr++ {
			syms := make([]complex128, c.BlockSymbols())
			for i := range syms {
				syms[i] = mathx.ComplexCN(rng, 1)
			}
			h := channel.RayleighInto(rng, c.Nt(), mr, nil)
			got := c.Decode(c.Transmit(c.Encode(syms), h), h)
			for i := range syms {
				if cmplx.Abs(got[i]-syms[i]) > 1e-9 {
					t.Fatalf("%s mr=%d: sym %d decoded %v, want %v", c.Name(), mr, i, got[i], syms[i])
				}
			}
		}
	}
}

// TestHalfRateDiversity: at equal per-bit receive SNR scale the
// half-rate G4 achieves full fourth-order diversity, like OSTBC4.
func TestHalfRateDiversity(t *testing.T) {
	rng := mathx.NewRand(213)
	ber := func(c *Code, snr float64) float64 {
		scale := complex(math.Sqrt(snr*c.Rate()/float64(c.Nt())), 0)
		errs, bits := 0, 0
		for blk := 0; blk < 20000; blk++ {
			h := channel.RayleighInto(rng, c.Nt(), 1, nil)
			b := make([]byte, c.BlockSymbols())
			syms := make([]complex128, c.BlockSymbols())
			for i := range b {
				b[i] = byte(rng.Intn(2))
				syms[i] = complex(1-2*float64(b[i]), 0) * scale
			}
			y := c.Transmit(c.Encode(syms), h)
			channel.AWGN(rng, y.Data, 1)
			for i, est := range c.Decode(y, h) {
				bits++
				var got byte
				if real(est) < 0 {
					got = 1
				}
				if got != b[i] {
					errs++
				}
			}
		}
		return float64(errs) / float64(bits)
	}
	// Diversity slope between 9 and 13 dB should be near 4th order for
	// G4 and clearly steeper than SISO's.
	lo, hi := math.Pow(10, 0.9), math.Pow(10, 1.3)
	g4lo, g4hi := ber(G4Half(), lo), ber(G4Half(), hi)
	if g4hi == 0 {
		t.Skip("not enough errors at high SNR for a slope estimate")
	}
	slope := math.Log10(g4lo/g4hi) / 0.4
	if slope < 2.5 {
		t.Errorf("G4 diversity slope = %v, want >> 1", slope)
	}
}
