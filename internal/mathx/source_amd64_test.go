package mathx

import (
	"os"
	"strings"
	"testing"
)

// TestVectorSeedSelected fails when a host whose kernel reports AVX2
// does not run the vector seed. /proc/cpuinfo is the oracle: Linux
// lists avx2 only when it also saves the YMM state.
func TestVectorSeedSelected(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	avx2 := false
	for _, line := range strings.Split(string(info), "\n") {
		if strings.HasPrefix(line, "flags") {
			avx2 = strings.Contains(line+" ", " avx2 ")
			break
		}
	}
	if avx2 && !vectorSeed {
		t.Fatal("CPU reports avx2 but Seed runs the pure-Go loop")
	}
	if vectorSeed != hasAVX2() {
		t.Fatalf("vectorSeed = %v, hasAVX2() = %v", vectorSeed, hasAVX2())
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
