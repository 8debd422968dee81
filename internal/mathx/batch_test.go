package mathx

import (
	"testing"
)

// TestBatchCF64ScatterGatherRoundTrip pins the AoS<->SoA bridge: a
// matrix scattered into a batch column and gathered back is bitwise
// unchanged, and lives at the documented lane-major offsets.
func TestBatchCF64ScatterGatherRoundTrip(t *testing.T) {
	rng := NewRand(7)
	const rows, cols, n = 3, 4, 17
	b := NewBatchCF64(rows*cols, n)
	src := make([]*CMat, n)
	for i := range src {
		m := NewCMat(rows, cols)
		for k := range m.Data {
			m.Data[k] = ComplexCN(rng, 1)
		}
		src[i] = m
		b.ScatterMat(i, m)
	}
	var back CMat
	for i, m := range src {
		b.GatherMat(i, rows, cols, &back)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if got, want := back.At(r, c), m.At(r, c); got != want {
					t.Fatalf("element %d cell (%d,%d): got %v, want %v", i, r, c, got, want)
				}
				if got := b.At(r*cols+c, i); got != m.At(r, c) {
					t.Fatalf("lane-major offset broken at element %d cell (%d,%d)", i, r, c)
				}
				if got := b.Data[(r*cols+c)*n+i]; got != m.At(r, c) {
					t.Fatalf("Data[l*N+i] layout broken at element %d cell (%d,%d)", i, r, c)
				}
			}
		}
	}
}

// TestBatchCF64ResizeReusesBacking checks the scratch-reuse contract:
// shrinking and regrowing within capacity must not reallocate, so hot
// loops that Resize per tile stay allocation-free.
func TestBatchCF64ResizeReusesBacking(t *testing.T) {
	b := NewBatchCF64(8, 64)
	p0 := &b.Data[0]
	b.Resize(2, 16)
	if &b.Data[0] != p0 {
		t.Fatal("shrinking Resize reallocated the backing slice")
	}
	b.Resize(8, 64)
	if &b.Data[0] != p0 {
		t.Fatal("regrowing Resize within capacity reallocated")
	}
	if b.Lanes != 8 || b.N != 64 || len(b.Data) != 8*64 {
		t.Fatalf("shape after Resize: %dx%d len %d", b.Lanes, b.N, len(b.Data))
	}
}

// TestBatchCF64LaneBounds verifies Lane returns exactly one lane with
// capacity clamped to it, so a kernel cannot silently run into the
// next lane.
func TestBatchCF64LaneBounds(t *testing.T) {
	b := NewBatchCF64(3, 5)
	for l := 0; l < 3; l++ {
		lane := b.Lane(l)
		if len(lane) != 5 || cap(lane) != 5 {
			t.Fatalf("lane %d: len %d cap %d, want 5/5", l, len(lane), cap(lane))
		}
		for i := range lane {
			lane[i] = complex(float64(l), float64(i))
		}
	}
	for l := 0; l < 3; l++ {
		for i := 0; i < 5; i++ {
			if b.At(l, i) != complex(float64(l), float64(i)) {
				t.Fatalf("lane %d entry %d clobbered: %v", l, i, b.At(l, i))
			}
		}
	}
}

// TestBatchF64Shape covers the float variant's Resize/Lane.
func TestBatchF64Shape(t *testing.T) {
	var b BatchF64
	b.Resize(2, 9)
	for i := range b.Lane(1) {
		b.Lane(1)[i] = float64(i) + 1
	}
	if b.Lane(0)[8] != 0 {
		t.Fatal("lane 0 overlaps lane 1")
	}
}
