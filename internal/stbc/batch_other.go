//go:build !amd64

package stbc

// The AVX2 kernels are never called: mathx.HasAVX2 is false off amd64.
// These stand-ins do nothing.

func decodePureAVX2(ya, yb, ha, hb []complex128, r, q float64, reDot, reN2, imDot, imN2 []float64) {
}

func divideAVX2(reDot, reN2, imDot, imN2 []float64, out []complex128) {}

func mulAdd1AVX2(yL, xL, hL, nzL []complex128) {}

func mulAdd2AVX2(yL, xL0, hL0, xL1, hL1, nzL []complex128) {}

func mulAdd3AVX2(yL, xL0, hL0, xL1, hL1, xL2, hL2, nzL []complex128) {}
