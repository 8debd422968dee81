package mathx

import "fmt"

// BatchCF64 is a structure-of-arrays batch of complex values: Lanes
// logical fields stored in one contiguous []complex128, lane-major,
// with N entries per lane. Entry i of lane l lives at Data[l*N+i], so
// a pass over one field of every batch element is a single contiguous
// walk — the layout the batched stbc/modulation/channel kernels stream
// over. The AoS equivalent (N small per-element matrices) pointer-
// chases one allocation per element; the SoA form is one allocation
// per batch and keeps the inner loops long and branch-free.
type BatchCF64 struct {
	Lanes, N int
	Data     []complex128
}

// NewBatchCF64 allocates a zeroed lanes-by-n batch.
func NewBatchCF64(lanes, n int) *BatchCF64 {
	b := &BatchCF64{}
	b.Resize(lanes, n)
	return b
}

// Resize reshapes the batch to lanes-by-n, reusing the backing slice
// when it has capacity. Contents are unspecified after the call; it
// exists so hot loops can keep one scratch batch across shape changes.
func (b *BatchCF64) Resize(lanes, n int) *BatchCF64 {
	if lanes < 0 || n < 0 {
		panic(fmt.Sprintf("mathx: invalid BatchCF64 dims %dx%d", lanes, n))
	}
	if cap(b.Data) < lanes*n {
		b.Data = make([]complex128, lanes*n)
	}
	b.Lanes, b.N, b.Data = lanes, n, b.Data[:lanes*n]
	return b
}

// Zero clears every entry and returns b.
func (b *BatchCF64) Zero() *BatchCF64 {
	for i := range b.Data {
		b.Data[i] = 0
	}
	return b
}

// Lane returns the contiguous slice of lane l across the batch.
func (b *BatchCF64) Lane(l int) []complex128 {
	return b.Data[l*b.N : (l+1)*b.N : (l+1)*b.N]
}

// At returns lane l of batch element i.
func (b *BatchCF64) At(l, i int) complex128 { return b.Data[l*b.N+i] }

// Set assigns lane l of batch element i.
func (b *BatchCF64) Set(l, i int, v complex128) { b.Data[l*b.N+i] = v }

// ScatterMat writes the row-major entries of m into column i: lane
// r*m.Cols+c receives m.At(r, c). It is the AoS-to-SoA bridge for one
// batch element; the batch must have m.Rows*m.Cols lanes.
func (b *BatchCF64) ScatterMat(i int, m *CMat) {
	if b.Lanes != m.Rows*m.Cols {
		panic(fmt.Sprintf("mathx: ScatterMat %dx%d into %d lanes", m.Rows, m.Cols, b.Lanes))
	}
	for l, v := range m.Data {
		b.Data[l*b.N+i] = v
	}
}

// GatherMat reads column i back into an r-by-c matrix (reshaped via
// EnsureShape; allocated when nil) — the SoA-to-AoS bridge.
func (b *BatchCF64) GatherMat(i, r, c int, m *CMat) *CMat {
	if b.Lanes != r*c {
		panic(fmt.Sprintf("mathx: GatherMat %dx%d from %d lanes", r, c, b.Lanes))
	}
	m = EnsureShape(m, r, c)
	for l := range m.Data {
		m.Data[l] = b.Data[l*b.N+i]
	}
	return m
}

// BatchF64 is the real-valued sibling of BatchCF64: lane-major float64
// fields across a batch. The batched decoders use it for per-element
// matched-filter accumulators (dot products and squared norms).
type BatchF64 struct {
	Lanes, N int
	Data     []float64
}

// Resize reshapes the batch to lanes-by-n, reusing the backing slice
// when it has capacity; contents are unspecified after the call.
func (b *BatchF64) Resize(lanes, n int) *BatchF64 {
	if lanes < 0 || n < 0 {
		panic(fmt.Sprintf("mathx: invalid BatchF64 dims %dx%d", lanes, n))
	}
	if cap(b.Data) < lanes*n {
		b.Data = make([]float64, lanes*n)
	}
	b.Lanes, b.N, b.Data = lanes, n, b.Data[:lanes*n]
	return b
}

// Lane returns the contiguous slice of lane l across the batch.
func (b *BatchF64) Lane(l int) []float64 {
	return b.Data[l*b.N : (l+1)*b.N : (l+1)*b.N]
}
