package stbc

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/mathx"
)

// TestDecodeIntoMatchesDecode checks the indexed matched filter against
// the allocating decoder on noisy random blocks for every registered
// design, including the half-rate generators that carry each symbol in
// several rows.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	codes := []*Code{SISO(), Alamouti(), OSTBC3(), OSTBC4(), G3Half(), G4Half()}
	rng := mathx.NewRand(42)
	for _, c := range codes {
		for mr := 1; mr <= 3; mr++ {
			syms := make([]complex128, c.BlockSymbols())
			for i := range syms {
				syms[i] = mathx.ComplexCN(rng, 1)
			}
			h := channel.RayleighInto(rng, c.Nt(), mr, nil)
			y := c.Transmit(c.Encode(syms), h)
			channel.AWGN(rng, y.Data, 0.1)

			want := c.Decode(y, h)
			got := c.DecodeInto(y, h, make([]complex128, 0, c.BlockSymbols()))
			for k := range want {
				if got[k] != want[k] {
					t.Errorf("%s mr=%d sym %d: DecodeInto = %v, Decode = %v",
						c.Name(), mr, k, got[k], want[k])
				}
			}
		}
	}
}

// TestDecodeIntoAllocationFree pins the steady-state allocation count of
// the whole encode/transmit/decode round trip with preallocated scratch.
func TestDecodeIntoAllocationFree(t *testing.T) {
	c := Alamouti()
	rng := mathx.NewRand(1)
	syms := []complex128{1 + 1i, -1 + 1i}
	h := channel.RayleighInto(rng, c.Nt(), 2, nil)
	var x, hT, y *mathx.CMat
	est := make([]complex128, c.BlockSymbols())
	x = c.EncodeInto(syms, x)
	hT = h.TransposeInto(hT)
	y = x.MulInto(hT, y)
	allocs := testing.AllocsPerRun(10, func() {
		x = c.EncodeInto(syms, x)
		hT = h.TransposeInto(hT)
		y = x.MulInto(hT, y)
		est = c.DecodeInto(y, h, est)
	})
	if allocs > 0 {
		t.Errorf("in-place round trip allocates %.1f objects per run, want 0", allocs)
	}
}
