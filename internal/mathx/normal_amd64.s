#include "textflag.h"

// func normVector(vec *[607]int64, tap, feed int, dst []float64) int
//
// For steps 1..len(dst) in groups of four, group g (steps 4g+1..4g+4):
//	Y0 = vec[feed-4g-4 : feed-4g] + vec[tap-4g-4 : tap-4g]   (VPADDQ)
// Lane l of Y0 holds step 4g+4-l. Each sum's bits 31..62 are j, the
// int32 rand.(*Rand).Uint32 returns; X1 holds the four j in step
// order. One VPGATHERDQ fetches knWn[j&0x7F] for all four; a lane is
// slow when |j| >= kn (unsigned: |MinInt32| is 2^31), and its normal is
// float64(j)*float64(wn). The normals of a group are stored even when
// a lane is slow: those from the slow lane on are overwritten later.
// Vector registers use VEX encodings only, and VZEROUPPER precedes
// each RET, so no SSE transition penalty reaches the caller.
TEXT ·normVector(SB), NOSPLIT, $0-56
	MOVQ         vec+0(FP), DI
	MOVQ         tap+8(FP), DX
	MOVQ         feed+16(FP), SI
	MOVQ         dst_base+24(FP), R10
	MOVQ         dst_len+32(FP), BX
	LEAQ         -32(DI)(DX*8), DX
	LEAQ         -32(DI)(SI*8), SI
	LEAQ         ·knWn(SB), R8
	LEAQ         ·normLanes(SB), R11
	VMOVDQU      (R11), Y15
	VMOVDQU      32(R11), Y13
	MOVL         $0x7f, AX
	VMOVD        AX, X14
	VPBROADCASTD X14, X14
	XORQ         CX, CX

loop:
	VMOVDQU      (SI), Y0
	VPADDQ       (DX), Y0, Y0
	VPSRLQ       $31, Y0, Y1
	VPERMD       Y1, Y15, Y1
	VPAND        X14, X1, X2
	VPCMPEQQ     Y4, Y4, Y4
	VPGATHERDQ   Y4, (R8)(X2*8), Y3
	VPERMD       Y3, Y13, Y3
	VEXTRACTI128 $1, Y3, X6
	VPABSD       X1, X7
	VPMAXUD      X3, X7, X8
	VPCMPEQD     X8, X7, X8
	VCVTDQ2PD    X1, Y9
	VCVTPS2PD    X6, Y10
	VMULPD       Y10, Y9, Y9
	VMOVUPD      Y9, (R10)(CX*8)
	VMOVMSKPS    X8, AX
	TESTL        AX, AX
	JNZ          slow
	VMOVDQU      Y0, (SI)
	SUBQ         $32, SI
	SUBQ         $32, DX
	ADDQ         $4, CX
	CMPQ         CX, BX
	JB           loop
	MOVQ         CX, ret+48(FP)
	VZEROUPPER
	RET

slow:
	// AX = index in the group of the first slow step: write back the
	// sums of the group's steps up to and including it.
	BSFL       AX, AX
	MOVQ       AX, R12
	SHLQ       $5, R12
	VMOVDQU    64(R11)(R12*1), Y11
	VPMASKMOVQ Y0, Y11, (SI)
	ADDQ       AX, CX
	MOVQ       CX, ret+48(FP)
	VZEROUPPER
	RET

// func bitsVector(vec *[607]int64, tap, feed int, dst []byte)
//
// normVector's group walk; each group stores its sums and the four bytes
// bitLanes gives for the sign mask of the sums shifted left by 31,
// which is their bit 32.
TEXT ·bitsVector(SB), NOSPLIT, $0-48
	MOVQ vec+0(FP), DI
	MOVQ tap+8(FP), DX
	MOVQ feed+16(FP), SI
	MOVQ dst_base+24(FP), R10
	MOVQ dst_len+32(FP), BX
	LEAQ -32(DI)(DX*8), DX
	LEAQ -32(DI)(SI*8), SI
	LEAQ ·bitLanes(SB), R8
	XORQ CX, CX

bitsloop:
	VMOVDQU   (SI), Y0
	VPADDQ    (DX), Y0, Y0
	VMOVDQU   Y0, (SI)
	VPSLLQ    $31, Y0, Y1
	VMOVMSKPD Y1, AX
	MOVL      (R8)(AX*4), AX
	MOVL      AX, (R10)(CX*1)
	SUBQ      $32, SI
	SUBQ      $32, DX
	ADDQ      $4, CX
	CMPQ      CX, BX
	JB        bitsloop
	VZEROUPPER
	RET
