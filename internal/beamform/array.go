package beamform

import (
	"fmt"
	"math/cmplx"
	"sort"

	"repro/internal/geom"
)

// Array is Algorithm 3's full transmit side: floor(mt/2) null-steering
// pairs, each cancelling toward the protected primary receiver. An
// unpaired odd node stays silent, exactly as the algorithm's pairing
// implies.
//
// Because both elements of a pair share any common phase shift, rotating
// a whole pair never disturbs its null; CoPhase exploits that to align
// the pairs' fields at the secondary receiver for the full
// 2*floor(mt/2) array amplitude.
type Array struct {
	Pairs []*Pair
	// phase[i] is the common rotation applied to pair i.
	phase []complex128
}

// NewArray pairs up the transmit positions (greedily, nearest remaining
// neighbour, in slice order) and builds one null-steering pair per
// couple, all nulled toward pr. At least two positions are required; an
// odd leftover node is excluded.
func NewArray(positions []geom.Point, pr geom.Point, wavelength float64) (*Array, error) {
	if len(positions) < 2 {
		return nil, fmt.Errorf("beamform: need at least 2 transmitters, got %d", len(positions))
	}
	remaining := append([]geom.Point(nil), positions...)
	arr := &Array{}
	for len(remaining) >= 2 {
		anchor := remaining[0]
		// Nearest remaining partner keeps pair spacings small, which
		// keeps the far-field delay formula accurate.
		best, bestDist := 1, anchor.Dist(remaining[1])
		for i := 2; i < len(remaining); i++ {
			if d := anchor.Dist(remaining[i]); d < bestDist {
				best, bestDist = i, d
			}
		}
		partner := remaining[best]
		remaining = append(remaining[1:best], remaining[best+1:]...)
		p, err := NewNullPair(anchor, partner, pr, wavelength)
		if err != nil {
			return nil, err
		}
		arr.Pairs = append(arr.Pairs, p)
		arr.phase = append(arr.phase, 1)
	}
	return arr, nil
}

// FieldAt sums the pairs' exact fields, with each pair rotated by its
// common phase.
func (a *Array) FieldAt(q geom.Point) complex128 {
	var f complex128
	for i, p := range a.Pairs {
		f += a.phase[i] * p.FieldAt(q)
	}
	return f
}

// AmplitudeAt returns |FieldAt(q)|.
func (a *Array) AmplitudeAt(q geom.Point) float64 {
	return cmplx.Abs(a.FieldAt(q))
}

// CoPhase rotates every pair so its field at q is real-positive: the
// pairs then add fully coherently toward q, while every pair-internal
// null (which is phase-invariant under a common rotation) is preserved.
func (a *Array) CoPhase(q geom.Point) {
	for i, p := range a.Pairs {
		f := p.FieldAt(q)
		if m := cmplx.Abs(f); m > 1e-12 {
			a.phase[i] = cmplx.Conj(f) / complex(m, 0)
		} else {
			a.phase[i] = 1
		}
	}
}

// ResetPhases removes any co-phasing.
func (a *Array) ResetPhases() {
	for i := range a.phase {
		a.phase[i] = 1
	}
}

// PairSpacings reports the element separations, sorted ascending —
// useful to sanity-check a pairing.
func (a *Array) PairSpacings() []float64 {
	out := make([]float64, len(a.Pairs))
	for i, p := range a.Pairs {
		out[i] = p.St1.Dist(p.St2)
	}
	sort.Float64s(out)
	return out
}
