//go:build !amd64

package mathx

// erfcAVX2 is never called: HasAVX2 is false off amd64. It stores
// nothing.
func erfcAVX2(dst, src []float64) {}
