package mathx

import (
	"math"
	"sort"
)

// Running accumulates streaming mean and variance using Welford's
// algorithm. It is the reduction primitive for every Monte-Carlo loop in
// the repository: workers keep independent Running values and merge them
// deterministically at the end.
type Running struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// Merge combines another accumulator into r (Chan et al. parallel update),
// so per-worker statistics reduce without reprocessing samples.
func (r *Running) Merge(o Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = o
		return
	}
	n1, n2 := float64(r.n), float64(o.n)
	d := o.mean - r.mean
	tot := n1 + n2
	r.mean += d * n2 / tot
	r.m2 += o.m2 + d*d*n1*n2/tot
	r.n += o.n
}

// RunningSnapshot is the exported state of a Running accumulator, for
// serialisation across process boundaries. JSON float64 encoding uses
// the shortest round-tripping representation, so a snapshot that crosses
// the wire restores the exact bits — the property the distributed
// Monte-Carlo merge (internal/cluster) depends on.
type RunningSnapshot struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// Snapshot exports the accumulator state.
func (r *Running) Snapshot() RunningSnapshot {
	return RunningSnapshot{N: r.n, Mean: r.mean, M2: r.m2}
}

// RunningFromSnapshot rebuilds an accumulator from exported state.
// RunningFromSnapshot(r.Snapshot()) is bit-identical to r.
func RunningFromSnapshot(s RunningSnapshot) Running {
	return Running{n: s.N, mean: s.Mean, m2: s.M2}
}

// N returns the number of observations.
func (r *Running) N() int64 { return r.n }

// Mean returns the sample mean (zero before any observation).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased sample variance.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// StdErr returns the standard error of the mean.
func (r *Running) StdErr() float64 {
	if r.n == 0 {
		return 0
	}
	return r.StdDev() / math.Sqrt(float64(r.n))
}

// CI95 returns the half-width of the 95% normal-approximation confidence
// interval around the mean. Experiment reports quote mean ± CI95.
func (r *Running) CI95() float64 { return 1.959963984540054 * r.StdErr() }

// Median returns the median of xs without modifying it.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// Quantile returns the q-th quantile (q in [0, 1]) of an ascending
// sorted slice, linearly interpolating between order statistics —
// Quantile(sorted, 0.5) equals Median. The caller sorts so hot loops
// can reuse one scratch slice across calls.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if frac == 0 || lo+1 >= n {
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}
