//go:build !amd64

package mathx

// vectorErfc is false: only amd64 has the erfc lane kernel, so
// ErfcInto runs the pure-Go loop.
var vectorErfc = false

// erfcAVX2 is never called where vectorErfc is false; it stores
// nothing.
func erfcAVX2(dst, src []float64) {}
