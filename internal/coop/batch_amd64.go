package coop

// scatterAVX2 fills lane[i] = complex(tape[i·stride]·s,
// tape[i·stride+1]·s) for every i < len(lane), a positive even length:
// per step one 16-byte load per entry (VINSERTF128 joins the two), one
// VMULPD and one 32-byte store. The caller checks that the tape holds
// the last entry's draws. Implemented in batch_amd64.s.
//
//go:noescape
func scatterAVX2(lane []complex128, tape []float64, stride int, s float64)
