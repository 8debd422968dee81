package mathx

import (
	"testing"
	"unsafe"
)

// TestVectorErfcSelected fails unless ErfcInto runs the path HasAVX2
// selects and HasAVX2 follows the CPU and GODEBUG; either path gives
// the pure-Go loop's values.
func TestVectorErfcSelected(t *testing.T) {
	requireAVX2Selected(t)
	src := []float64{-3, -0.5, 0, 0.25, 0.84375, 1.25, 2.857, 6, 27}
	got, want := make([]float64, len(src)), make([]float64, len(src))
	ErfcInto(got, src)
	erfcInto(want, src, false)
	for i := range src {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("HasAVX2() = %v: ErfcInto(%v) = %v, pure-Go loop %v", HasAVX2(), src[i], got[i], want[i])
		}
	}
}

// TestErfcLanesLayout ties erfc_amd64.s's row offsets to erfcLanes.
func TestErfcLanesLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		off, want uintptr
	}{
		{"c28", unsafe.Offsetof(erfcLanes.c28), 256},
		{"oneMinusErx", unsafe.Offsetof(erfcLanes.oneMinusErx), 416},
		{"e3", unsafe.Offsetof(erfcLanes.e3), 800},
		{"zero", unsafe.Offsetof(erfcLanes.zero), 928},
		{"num", unsafe.Offsetof(erfcLanes.num), 960},
		{"den", unsafe.Offsetof(erfcLanes.den), 1216},
	} {
		if c.off != c.want {
			t.Errorf("erfcLanes.%s at byte %d; the assembly reads it at %d", c.name, c.off, c.want)
		}
	}
	if size := unsafe.Sizeof(erfcLanes); size != 1472 {
		t.Errorf("erfcLanes is %d bytes, the assembly's rows end at 1472", size)
	}
}
