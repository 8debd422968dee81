//go:build !amd64

package coop

// laneKernels is false: only amd64 has the AVX2 tape scatter, so the
// scatter runs the pure-Go loop.
var laneKernels = false

// scatterAVX2 is never called where laneKernels is false; it fills
// nothing.
func scatterAVX2(lane []complex128, tape []float64, stride int, s float64) {}
