package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRunningBasics(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Errorf("N = %d", r.N())
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v", r.Mean())
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if math.Abs(r.Variance()-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v", r.Variance())
	}
	if math.Abs(r.StdErr()-r.StdDev()/math.Sqrt(8)) > 1e-15 {
		t.Errorf("StdErr inconsistent")
	}
	if r.CI95() <= 0 {
		t.Errorf("CI95 = %v", r.CI95())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.StdErr() != 0 || r.N() != 0 {
		t.Error("empty Running should be all zero")
	}
	var s Running
	s.Add(1)
	if s.Variance() != 0 {
		t.Error("single-sample variance should be 0")
	}
}

func TestRunningMergeEquivalence(t *testing.T) {
	f := func(xs []float64, split uint8) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		xs = clean
		if len(xs) < 2 {
			return true
		}
		k := int(split) % len(xs)
		var whole, a, b Running
		for _, x := range xs {
			whole.Add(x)
		}
		for _, x := range xs[:k] {
			a.Add(x)
		}
		for _, x := range xs[k:] {
			b.Add(x)
		}
		a.Merge(b)
		if a.N() != whole.N() {
			return false
		}
		scale := math.Max(1, math.Abs(whole.Mean()))
		if math.Abs(a.Mean()-whole.Mean()) > 1e-9*scale {
			return false
		}
		vscale := math.Max(1, whole.Variance())
		return math.Abs(a.Variance()-whole.Variance()) < 1e-6*vscale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRunningMergeEmptySides(t *testing.T) {
	var a, b Running
	b.Add(3)
	b.Add(5)
	a.Merge(b) // empty receiver adopts argument
	if a.N() != 2 || a.Mean() != 4 {
		t.Errorf("merge into empty: n=%d mean=%v", a.N(), a.Mean())
	}
	var empty Running
	a.Merge(empty) // merging empty is a no-op
	if a.N() != 2 || a.Mean() != 4 {
		t.Errorf("merge of empty changed state: n=%d mean=%v", a.N(), a.Mean())
	}
}

func TestMeanMedianMinMax(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if Median(xs) != 3 {
		t.Errorf("Median = %v", Median(xs))
	}
	if Median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Error("even median")
	}
	if Median(nil) != 0 {
		t.Error("empty slice should give 0")
	}
	// Median must not reorder its input.
	if xs[0] != 3 || xs[4] != 5 {
		t.Error("Median mutated input")
	}
}
