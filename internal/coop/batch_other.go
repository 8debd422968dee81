//go:build !amd64

package coop

// scatterAVX2 is never called: mathx.HasAVX2 is false off amd64. It
// fills nothing.
func scatterAVX2(lane []complex128, tape []float64, stride int, s float64) {}
