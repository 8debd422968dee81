package mathx

import (
	"os"
	"strings"
	"testing"
	"unsafe"
)

// cpuReportsAVX2 reports whether the kernel lists avx2 among the CPU
// flags, the oracle for the vector paths: Linux lists avx2 only when it
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

// TestVectorSeedSelected fails when a host whose kernel reports AVX2
// does not run the vector seed.
func TestVectorSeedSelected(t *testing.T) {
	if cpuReportsAVX2(t) && !vectorSeed {
		t.Fatal("CPU reports avx2 but Seed runs the pure-Go loop")
	}
	if vectorSeed != hasAVX2() || HasAVX2() != hasAVX2() {
		t.Fatalf("vectorSeed = %v, HasAVX2() = %v, hasAVX2() = %v", vectorSeed, HasAVX2(), hasAVX2())
	}
}

// TestVectorFillSelected fails when a host whose kernel reports AVX2
// does not run the vector NormFloat64s and Bits fills.
func TestVectorFillSelected(t *testing.T) {
	if cpuReportsAVX2(t) && !vectorFill {
		t.Fatal("CPU reports avx2 but the fills run the pure-Go loops")
	}
	if vectorFill != hasAVX2() {
		t.Fatalf("vectorFill = %v, hasAVX2() = %v", vectorFill, hasAVX2())
	}
}

// TestVectorSeedLayout ties the assembly's constants to the Go ones:
// 151 four-word groups and 608-word rows (4,864-byte strides).
func TestVectorSeedLayout(t *testing.T) {
	if vectorSeedWords != 151*4 {
		t.Fatalf("vectorSeedWords = %d, the assembly writes %d", vectorSeedWords, 151*4)
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
