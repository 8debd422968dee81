package mathx

import (
	"os"
	"os/exec"
	"strconv"
	"testing"
)

// TestAVX2OffReadsGODEBUG pins the GODEBUG reader to the runtime's
// reading of its cpu options: the last of cpu.avx2, cpu.avx and cpu.all
// set to on or off wins, and other keys and values change nothing.
func TestAVX2OffReadsGODEBUG(t *testing.T) {
	for _, c := range []struct {
		godebug string
		off     bool
	}{
		{"", false},
		{"cpu.avx2=off", true},
		{"cpu.avx=off", true},
		{"cpu.all=off", true},
		{"cpu.all=off,cpu.avx2=on", false},
		{"cpu.avx2=off,cpu.all=on", false},
		{"madvdontneed=1", false},
		{"madvdontneed=1,cpu.avx2=off,gctrace=0", true},
		{"cpu.fma=off", false},
		{"cpu.avx512f=off", false},
		{"cpu.avx2=0", false},
		{"cpu.avx2=OFF", false},
		{"cpu.avx2", false},
		{"cpu.avx2=off,cpu.avx2=1", true},
	} {
		if got := avx2Off(c.godebug); got != c.off {
			t.Errorf("avx2Off(%q) = %v, want %v", c.godebug, got, c.off)
		}
	}
}

// avx2WantEnv hands a re-executed test binary the HasAVX2 answer its
// GODEBUG must give.
const avx2WantEnv = "MATHX_TEST_AVX2_WANT"

// TestAVX2FollowsGODEBUG re-executes the test binary on an AVX2 host
// and requires HasAVX2 to follow GODEBUG: false under cpu.avx2=off, the
// pure-Go run of every kernel, and true under an unrelated setting, so
// that a reader which turns the default path off by mistake, nearly
// doubling the hop-heavy workloads, fails here.
func TestAVX2FollowsGODEBUG(t *testing.T) {
	if want := os.Getenv(avx2WantEnv); want != "" {
		if got := strconv.FormatBool(HasAVX2()); got != want {
			t.Fatalf("GODEBUG=%q: HasAVX2() = %s, want %s", os.Getenv("GODEBUG"), got, want)
		}
		return
	}
	if !hasAVX2() {
		t.Skip("no AVX2 on this host")
	}
	for _, c := range []struct {
		godebug string
		want    bool
	}{{"cpu.avx2=off", false}, {"madvdontneed=1", true}} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestAVX2FollowsGODEBUG$", "-test.count=1")
		// The child's GODEBUG replaces the parent's: os/exec passes on
		// only the last of two entries.
		cmd.Env = append(os.Environ(), avx2WantEnv+"="+strconv.FormatBool(c.want), "GODEBUG="+c.godebug)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("child under GODEBUG=%s: %v\n%s", c.godebug, err, out)
		}
	}
}
