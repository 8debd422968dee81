package mathx

import (
	"os"
	"strings"
	"testing"
	"unsafe"
)

// cpuReportsAVX2 reports whether the kernel lists avx2 among the CPU
// flags, the oracle for HasAVX2: Linux lists avx2 only when it
// also saves the YMM state.
func cpuReportsAVX2(t *testing.T) bool {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		if strings.HasPrefix(line, "flags") {
			return strings.Contains(line+" ", " avx2 ")
		}
	}
	return false
}

// requireAVX2Selected fails unless HasAVX2 is on exactly where the
// kernel reports AVX2 and GODEBUG leaves it on: every vector path keys
// on it.
func requireAVX2Selected(t *testing.T) {
	t.Helper()
	godebug := os.Getenv("GODEBUG")
	if want := cpuReportsAVX2(t) && !avx2Off(godebug); HasAVX2() != want {
		t.Fatalf("GODEBUG=%q: HasAVX2() = %v, want %v", godebug, HasAVX2(), want)
	}
}

// TestVectorSeedSelected fails unless Seed runs the path HasAVX2 selects
// and HasAVX2 follows the CPU and GODEBUG; either path leaves the
// pure-Go loop's state.
func TestVectorSeedSelected(t *testing.T) {
	requireAVX2Selected(t)
	var got, want source64
	got.Seed(20261019)
	want.seed(20261019, false)
	if got != want {
		t.Fatalf("HasAVX2() = %v: Seed state differs from the pure-Go loop's", HasAVX2())
	}
}

// TestVectorFillSelected fails unless NormFloat64s and Bits run the path
// HasAVX2 selects and HasAVX2 follows the CPU and GODEBUG; either path
// gives the pure-Go loops' draws.
func TestVectorFillSelected(t *testing.T) {
	requireAVX2Selected(t)
	got, want := NewReusableRand(), NewReusableRand()
	got.Reseed(20261019)
	want.Reseed(20261019)
	norms, wantNorms := make([]float64, 37), make([]float64, 37)
	got.NormFloat64s(norms)
	want.normFloat64s(wantNorms, false)
	bits, wantBits := make([]byte, 37), make([]byte, 37)
	got.Bits(bits)
	want.bits(wantBits, false)
	for i := range norms {
		if norms[i] != wantNorms[i] || bits[i] != wantBits[i] {
			t.Fatalf("HasAVX2() = %v: draw %d = %v, %d; pure-Go loops %v, %d",
				HasAVX2(), i, norms[i], bits[i], wantNorms[i], wantBits[i])
		}
	}
}

// TestVectorSeedLayout ties the assembly's constants to the Go ones:
// 151 four-word groups and 608-word rows (4,864-byte strides).
func TestVectorSeedLayout(t *testing.T) {
	if seedAVX2Words != 151*4 {
		t.Fatalf("seedAVX2Words = %d, the assembly writes %d", seedAVX2Words, 151*4)
	}
	if n := len(parkMillerLanes[0]); n*8 != 4864 {
		t.Fatalf("lane rows hold %d words; the assembly strides 4864 bytes", n)
	}
}

// TestVectorFillLayout ties normVector's constant offsets to normLanes:
// the two permutations at bytes 0 and 32 and the four 32-byte store
// masks at byte 64.
func TestVectorFillLayout(t *testing.T) {
	if off := unsafe.Offsetof(normLanes.split); off != 32 {
		t.Fatalf("normLanes.split at byte %d; the assembly reads it at 32", off)
	}
	if off := unsafe.Offsetof(normLanes.store); off != 64 {
		t.Fatalf("normLanes.store at byte %d; the assembly reads it at 64", off)
	}
	if size := unsafe.Sizeof(normLanes.store[0]); size != 32 {
		t.Fatalf("store masks are %d bytes; the assembly strides 32", size)
	}
}
