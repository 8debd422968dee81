//go:build !amd64

package mathx

// normVector and bitsVector are never called: HasAVX2 is false off
// amd64. They draw nothing.
func normVector(vec *[rngLen]int64, tap, feed int, dst []float64) int { return 0 }

func bitsVector(vec *[rngLen]int64, tap, feed int, dst []byte) {}
