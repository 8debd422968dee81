//go:build !amd64

package modulation

// decideBPSK is never called: mathx.HasAVX2 is false off amd64. It
// decides nothing.
func decideBPSK(src []complex128, d, scale float64, dst []byte, stride int) {}
