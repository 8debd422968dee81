#include "textflag.h"

// Every instruction that touches a vector register is VEX-encoded,
// scalar moves into XMM registers included (VMOVQ, not MOVQ), and
// VZEROUPPER precedes each RET: a legacy-SSE instruction after a YMM
// write stalls for hundreds of cycles on some hosts.

// func decideBPSK(src []complex128, d, scale float64, dst []byte, stride int)
//
// Four symbols per step. VUNPCKLPD gathers their real parts in unpack
// order (symbols 0, 2, 1, 3); each is divided by d, then by scale, has
// 1 added and is multiplied by 0.5, the same operations in the same
// order as pamDecide(real(y)/d/scale, 2). VCMPPD GE_OQ against 0.5
// decides, false for NaN, and bpskLanes turns the four-bit mask into
// the four bytes, stored stride bytes apart.
TEXT ·decideBPSK(SB), NOSPLIT, $0-72
	MOVQ         src_base+0(FP), SI
	MOVQ         src_len+8(FP), BX
	VBROADCASTSD d+24(FP), Y14
	VBROADCASTSD scale+32(FP), Y13
	MOVQ         dst_base+40(FP), DI
	MOVQ         stride+64(FP), R9
	LEAQ         (R9)(R9*2), R10
	MOVQ         $0x3ff0000000000000, AX
	VMOVQ        AX, X12
	VBROADCASTSD X12, Y12
	MOVQ         $0x3fe0000000000000, AX
	VMOVQ        AX, X11
	VBROADCASTSD X11, Y11
	LEAQ         ·bpskLanes(SB), R8
	SHRQ         $2, BX

loop:
	VMOVUPD   (SI), Y0
	VMOVUPD   32(SI), Y1
	VUNPCKLPD Y1, Y0, Y0
	VDIVPD    Y14, Y0, Y0
	VDIVPD    Y13, Y0, Y0
	VADDPD    Y12, Y0, Y0
	VMULPD    Y11, Y0, Y0
	VCMPPD    $0x1d, Y11, Y0, Y0
	VMOVMSKPD Y0, AX
	MOVL      (R8)(AX*4), AX
	MOVB      AL, (DI)
	SHRL      $8, AX
	MOVB      AL, (DI)(R9*1)
	SHRL      $8, AX
	MOVB      AL, (DI)(R9*2)
	SHRL      $8, AX
	MOVB      AL, (DI)(R10*1)
	ADDQ      $64, SI
	LEAQ      (DI)(R9*4), DI
	DECQ      BX
	JNZ       loop
	VZEROUPPER
	RET
