//go:build !amd64

package mathx

// vectorFill is false: only amd64 has vector fills, so NormFloat64s and
// Bits run the pure-Go loops.
var vectorFill = false

// normVector is never called where vectorFill is false; it draws
// nothing.
func normVector(vec *[rngLen]int64, tap, feed int, dst []float64) int { return 0 }

// bitsVector is never called where vectorFill is false; it draws
// nothing.
func bitsVector(vec *[rngLen]int64, tap, feed int, dst []byte) {}
