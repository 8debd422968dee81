//go:build !amd64

package modulation

// laneKernels is false: only amd64 has the AVX2 decision kernel, so
// every decision runs the pure-Go loop.
var laneKernels = false

// decideBPSK is never called where laneKernels is false; it decides
// nothing.
func decideBPSK(src []complex128, d, scale float64, dst []byte, stride int) {}
