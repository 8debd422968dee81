package mathx

import (
	"testing"
	"unsafe"
)

// TestVectorErfcSelected fails when a host whose kernel reports AVX2
// does not run the erfc lane kernel.
func TestVectorErfcSelected(t *testing.T) {
	if cpuReportsAVX2(t) && !vectorErfc {
		t.Fatal("CPU reports avx2 but ErfcInto runs the pure-Go loop")
	}
	if vectorErfc != hasAVX2() {
		t.Fatalf("vectorErfc = %v, hasAVX2() = %v", vectorErfc, hasAVX2())
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
