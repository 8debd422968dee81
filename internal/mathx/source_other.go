//go:build !amd64

package mathx

// vectorSeed is false: only amd64 has a vector table seed, so Seed
// runs the pure-Go loop over every word.
var vectorSeed = false

// seedVector is never called where vectorSeed is false; it writes
// nothing.
func seedVector(vec *[rngLen]int64, x uint64) int { return 0 }

// hasAVX2 reports false: the vector seed is amd64 assembly.
func hasAVX2() bool { return false }
