#include "textflag.h"

// Every instruction that touches a vector register is VEX-encoded,
// scalar moves into XMM registers included (VMOVQ, not MOVQ), and
// VZEROUPPER precedes each RET: a legacy-SSE instruction after a YMM
// write stalls for hundreds of cycles on some hosts.

// func scatterAVX2(lane []complex128, tape []float64, stride int, s float64)
//
// Two entries per step: the draw pairs of blocks i and i+1 sit stride
// words apart on the tape and side by side in the lane.
TEXT ·scatterAVX2(SB), NOSPLIT, $0-64
	MOVQ         lane_base+0(FP), DI
	MOVQ         lane_len+8(FP), BX
	MOVQ         tape_base+24(FP), SI
	MOVQ         stride+48(FP), DX
	SHLQ         $3, DX
	VBROADCASTSD s+56(FP), Y15
	SHRQ         $1, BX

loop:
	VMOVUPD     (SI), X0
	VINSERTF128 $1, (SI)(DX*1), Y0, Y0
	VMULPD      Y15, Y0, Y0
	VMOVUPD     Y0, (DI)
	ADDQ        $32, DI
	LEAQ        (SI)(DX*2), SI
	DECQ        BX
	JNZ         loop
	VZEROUPPER
	RET
