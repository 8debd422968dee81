//go:build !amd64

package mathx

// seedVector is never called: HasAVX2 is false off amd64. It writes
// nothing.
func seedVector(vec *[rngLen]int64, x uint64) int { return 0 }

// hasAVX2 reports false: the AVX2 kernels are amd64 assembly.
func hasAVX2() bool { return false }
