package stbc

import (
	"fmt"
	"math/cmplx"
)

// MRC maximal-ratio combines per-branch observations y_j = h_j*s + n_j
// into a single soft symbol estimate. It is the optimal SIMO receiver the
// overlay paradigm's Step 1 (Pt -> m SUs over a 1-by-m SIMO link) relies
// on, and it normalises so the estimate is unbiased.
func MRC(y, h []complex128) complex128 {
	if len(y) != len(h) {
		panic(fmt.Sprintf("stbc: MRC branch mismatch %d vs %d", len(y), len(h)))
	}
	var num complex128
	var den float64
	for j := range y {
		num += cmplx.Conj(h[j]) * y[j]
		a := real(h[j])*real(h[j]) + imag(h[j])*imag(h[j])
		den += a
	}
	if den == 0 {
		return 0
	}
	return num / complex(den, 0)
}
