package sim

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/mathx"
)

// testBatch is the uniform test kernel: one Uniform[0, 1) draw per
// trial, derived from the trial's seed.
func testBatch(map[string]float64) (TrialFunc, error) { return uniformTrial, nil }

func uniformTrial(seeds []int64, vals []float64) {
	for i, s := range seeds {
		st := uint64(s)
		vals[i] = unitFloat(&st)
	}
}

// unitFloat advances a splitmix64 state and maps the draw to [0, 1).
// Test kernels derive each trial's randomness from its seed this way,
// without a generator to seed or allocate.
func unitFloat(state *uint64) float64 {
	return float64(mathx.SplitMix64(state)>>11) / (1 << 53)
}

func TestKernelsSortedAndDiscoverable(t *testing.T) {
	RegisterKernel("ztest.kernel.b", Kernel{Build: testBatch})
	RegisterKernel("ztest.kernel.a", Kernel{Build: testBatch})
	names := Kernels()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Kernels() not sorted: %v", names)
	}
	for _, want := range []string{"ztest.kernel.a", "ztest.kernel.b"} {
		i := sort.SearchStrings(names, want)
		if i >= len(names) || names[i] != want {
			t.Fatalf("Kernels() = %v missing %q", names, want)
		}
	}
	if _, err := NewKernelBatch("ztest.kernel.a", nil); err != nil {
		t.Fatalf("registered kernel not buildable: %v", err)
	}
	// Unknown names fail with the full catalog in the message, so a
	// typo'd campaign spec tells the operator what exists.
	_, err := NewKernelBatch("ztest.kernel.nope", nil)
	if err == nil || !strings.Contains(err.Error(), "ztest.kernel.a") {
		t.Fatalf("unknown-kernel error should list kernels, got %v", err)
	}
}

func TestRegisterKernelDuplicatePanics(t *testing.T) {
	RegisterKernel("ztest.kernel.dup", Kernel{Build: testBatch})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("duplicate registration did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, `kernel "ztest.kernel.dup" registered twice`) {
			t.Fatalf("panic %v does not name the duplicate kernel", r)
		}
	}()
	RegisterKernel("ztest.kernel.dup", Kernel{Build: testBatch})
}

func TestRegisterKernelRejectsEmpty(t *testing.T) {
	for _, tc := range []struct {
		name string
		k    KernelFunc
	}{{"", testBatch}, {"ztest.kernel.nil", nil}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RegisterKernel(%q, %v) did not panic", tc.name, tc.k == nil)
				}
			}()
			RegisterKernel(tc.name, Kernel{Build: tc.k})
		}()
	}
}
