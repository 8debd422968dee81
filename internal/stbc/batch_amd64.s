#include "textflag.h"

// Every instruction that touches a vector register is VEX-encoded,
// scalar moves into XMM registers included (VMOVQ, not MOVQ), and
// VZEROUPPER precedes each RET: a legacy-SSE instruction after a YMM
// write stalls for hundreds of cycles on some hosts.

// PURE_RE folds one receive antenna's terms into the real-part sums of
// four blocks: Y8 = reDot, Y9 = reN2, Y15 = r. It leaves the antenna's
// real and imaginary h in Y0/Y1 and y in Y2/Y3, all in unpack order.
#define PURE_RE(yp, hp) \
	VMOVUPD   (hp)(CX*2), Y4; \
	VMOVUPD   32(hp)(CX*2), Y5; \
	VUNPCKLPD Y5, Y4, Y0; \
	VUNPCKHPD Y5, Y4, Y1; \
	VMOVUPD   (yp)(CX*2), Y4; \
	VMOVUPD   32(yp)(CX*2), Y5; \
	VUNPCKLPD Y5, Y4, Y2; \
	VUNPCKHPD Y5, Y4, Y3; \
	VMULPD    Y15, Y0, Y4; \
	VMULPD    Y15, Y1, Y5; \
	VMULPD    Y2, Y4, Y6; \
	VADDPD    Y6, Y8, Y8; \
	VMULPD    Y3, Y5, Y6; \
	VADDPD    Y6, Y8, Y8; \
	VMULPD    Y4, Y4, Y6; \
	VADDPD    Y6, Y9, Y9; \
	VMULPD    Y5, Y5, Y6; \
	VADDPD    Y6, Y9, Y9

// PURE_IM folds the same antenna's terms into the imaginary-part sums,
// Y10 = imDot, Y11 = imN2, Y14 = q, Y13 = the sign bit: the filter
// terms are -(q*him) and q*hre.
#define PURE_IM \
	VMULPD Y14, Y1, Y4; \
	VXORPD Y13, Y4, Y4; \
	VMULPD Y14, Y0, Y5; \
	VMULPD Y2, Y4, Y6; \
	VADDPD Y6, Y10, Y10; \
	VMULPD Y3, Y5, Y6; \
	VADDPD Y6, Y10, Y10; \
	VMULPD Y4, Y4, Y6; \
	VADDPD Y6, Y11, Y11; \
	VMULPD Y5, Y5, Y6; \
	VADDPD Y6, Y11, Y11

// func decodePureAVX2(ya, yb, ha, hb []complex128, r, q float64, reDot, reN2, imDot, imN2 []float64)
//
// CX is the byte offset into the sums; the complex lanes are read at
// twice it. An empty yb means one antenna, an empty imDot the real
// part only: four loops, one per shape, so no step branches.
TEXT ·decodePureAVX2(SB), NOSPLIT, $0-208
	MOVQ         ya_base+0(FP), SI
	MOVQ         yb_base+24(FP), DX
	MOVQ         ha_base+48(FP), R8
	MOVQ         hb_base+72(FP), R9
	VBROADCASTSD r+96(FP), Y15
	VBROADCASTSD q+104(FP), Y14
	MOVQ         reDot_base+112(FP), R10
	MOVQ         reN2_base+136(FP), R11
	MOVQ         imDot_base+160(FP), R12
	MOVQ         imN2_base+184(FP), R13
	MOVQ         reDot_len+120(FP), BX
	SHLQ         $3, BX
	MOVQ         $0x8000000000000000, AX
	VMOVQ        AX, X13
	VBROADCASTSD X13, Y13
	XORQ         CX, CX
	MOVQ         imDot_len+168(FP), DI
	MOVQ         yb_len+32(FP), AX
	TESTQ        AX, AX
	JZ           single
	TESTQ        DI, DI
	JZ           pairre

pair:
	VMOVUPD (R10)(CX*1), Y8
	VMOVUPD (R11)(CX*1), Y9
	VMOVUPD (R12)(CX*1), Y10
	VMOVUPD (R13)(CX*1), Y11
	PURE_RE(SI, R8)
	PURE_IM
	PURE_RE(DX, R9)
	PURE_IM
	VMOVUPD Y8, (R10)(CX*1)
	VMOVUPD Y9, (R11)(CX*1)
	VMOVUPD Y10, (R12)(CX*1)
	VMOVUPD Y11, (R13)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, BX
	JB      pair
	VZEROUPPER
	RET

pairre:
	VMOVUPD (R10)(CX*1), Y8
	VMOVUPD (R11)(CX*1), Y9
	PURE_RE(SI, R8)
	PURE_RE(DX, R9)
	VMOVUPD Y8, (R10)(CX*1)
	VMOVUPD Y9, (R11)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, BX
	JB      pairre
	VZEROUPPER
	RET

single:
	TESTQ DI, DI
	JZ    singlere

singleboth:
	VMOVUPD (R10)(CX*1), Y8
	VMOVUPD (R11)(CX*1), Y9
	VMOVUPD (R12)(CX*1), Y10
	VMOVUPD (R13)(CX*1), Y11
	PURE_RE(SI, R8)
	PURE_IM
	VMOVUPD Y8, (R10)(CX*1)
	VMOVUPD Y9, (R11)(CX*1)
	VMOVUPD Y10, (R12)(CX*1)
	VMOVUPD Y11, (R13)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, BX
	JB      singleboth
	VZEROUPPER
	RET

singlere:
	VMOVUPD (R10)(CX*1), Y8
	VMOVUPD (R11)(CX*1), Y9
	PURE_RE(SI, R8)
	VMOVUPD Y8, (R10)(CX*1)
	VMOVUPD Y9, (R11)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, BX
	JB      singlere
	VZEROUPPER
	RET

// QUOTIENT leaves in dst the four quotients dot/n2 of the sums at
// (dp) and (np), with +0 where n2 > 0 fails (Y12 is zero).
#define QUOTIENT(dp, np, dst) \
	VMOVUPD (dp)(CX*1), dst; \
	VMOVUPD (np)(CX*1), Y7; \
	VDIVPD  Y7, dst, dst; \
	VCMPPD  $0x1e, Y12, Y7, Y7; \
	VANDPD  Y7, dst, dst

// func divideAVX2(reDot, reN2, imDot, imN2 []float64, out []complex128)
TEXT ·divideAVX2(SB), NOSPLIT, $0-120
	MOVQ   reDot_base+0(FP), R10
	MOVQ   reN2_base+24(FP), R11
	MOVQ   imDot_base+48(FP), R12
	MOVQ   imN2_base+72(FP), R13
	MOVQ   out_base+96(FP), DI
	MOVQ   reDot_len+8(FP), BX
	SHLQ   $3, BX
	VXORPD Y12, Y12, Y12
	XORQ   CX, CX
	MOVQ   imDot_len+56(FP), AX
	TESTQ  AX, AX
	JZ     divre

divboth:
	QUOTIENT(R10, R11, Y0)
	QUOTIENT(R12, R13, Y1)
	VUNPCKLPD Y1, Y0, Y2
	VUNPCKHPD Y1, Y0, Y3
	VMOVUPD   Y2, (DI)(CX*2)
	VMOVUPD   Y3, 32(DI)(CX*2)
	ADDQ      $32, CX
	CMPQ      CX, BX
	JB        divboth
	VZEROUPPER
	RET

divre:
	QUOTIENT(R10, R11, Y0)
	VUNPCKLPD Y12, Y0, Y2
	VUNPCKHPD Y12, Y0, Y3
	VMOVUPD   Y2, (DI)(CX*2)
	VMOVUPD   Y3, 32(DI)(CX*2)
	ADDQ      $32, CX
	CMPQ      CX, BX
	JB        divre
	VZEROUPPER
	RET

// CMULADD adds the complex products x·h of two blocks to Y8, with the
// lanes at (xp) and (hp): Y2 = [xr·hr, xi·hr], Y3 = [xi·hi, xr·hi] and
// VADDSUBPD forms [xr·hr − xi·hi, xi·hr + xr·hi] per block.
#define CMULADD(xp, hp) \
	VMOVUPD   (xp)(CX*1), Y0; \
	VMOVUPD   (hp)(CX*1), Y1; \
	VMOVDDUP  Y1, Y2; \
	VPERMILPD $0xf, Y1, Y3; \
	VPERMILPD $0x5, Y0, Y4; \
	VMULPD    Y2, Y0, Y2; \
	VMULPD    Y3, Y4, Y3; \
	VADDSUBPD Y3, Y2, Y2; \
	VADDPD    Y2, Y8, Y8

// func mulAdd1AVX2(yL, xL, hL, nzL []complex128)
//
// CX is the byte offset into every lane; a nonzero nzL length takes
// the loop that adds the noise after the product.
TEXT ·mulAdd1AVX2(SB), NOSPLIT, $0-96
	MOVQ  yL_base+0(FP), DI
	MOVQ  yL_len+8(FP), BX
	SHLQ  $4, BX
	MOVQ  xL_base+24(FP), SI
	MOVQ  hL_base+48(FP), R8
	MOVQ  nzL_base+72(FP), AX
	MOVQ  nzL_len+80(FP), DX
	XORQ  CX, CX
	TESTQ DX, DX
	JZ    quiet1

noisy1:
	VMOVUPD (DI)(CX*1), Y8
	CMULADD(SI, R8)
	VADDPD  (AX)(CX*1), Y8, Y8
	VMOVUPD Y8, (DI)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, BX
	JB      noisy1
	VZEROUPPER
	RET

quiet1:
	VMOVUPD (DI)(CX*1), Y8
	CMULADD(SI, R8)
	VMOVUPD Y8, (DI)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, BX
	JB      quiet1
	VZEROUPPER
	RET

// func mulAdd2AVX2(yL, xL0, hL0, xL1, hL1, nzL []complex128)
TEXT ·mulAdd2AVX2(SB), NOSPLIT, $0-144
	MOVQ  yL_base+0(FP), DI
	MOVQ  yL_len+8(FP), BX
	SHLQ  $4, BX
	MOVQ  xL0_base+24(FP), SI
	MOVQ  hL0_base+48(FP), R8
	MOVQ  xL1_base+72(FP), R9
	MOVQ  hL1_base+96(FP), R10
	MOVQ  nzL_base+120(FP), AX
	MOVQ  nzL_len+128(FP), DX
	XORQ  CX, CX
	TESTQ DX, DX
	JZ    quiet2

noisy2:
	VMOVUPD (DI)(CX*1), Y8
	CMULADD(SI, R8)
	CMULADD(R9, R10)
	VADDPD  (AX)(CX*1), Y8, Y8
	VMOVUPD Y8, (DI)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, BX
	JB      noisy2
	VZEROUPPER
	RET

quiet2:
	VMOVUPD (DI)(CX*1), Y8
	CMULADD(SI, R8)
	CMULADD(R9, R10)
	VMOVUPD Y8, (DI)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, BX
	JB      quiet2
	VZEROUPPER
	RET

// func mulAdd3AVX2(yL, xL0, hL0, xL1, hL1, xL2, hL2, nzL []complex128)
TEXT ·mulAdd3AVX2(SB), NOSPLIT, $0-192
	MOVQ  yL_base+0(FP), DI
	MOVQ  yL_len+8(FP), BX
	SHLQ  $4, BX
	MOVQ  xL0_base+24(FP), SI
	MOVQ  hL0_base+48(FP), R8
	MOVQ  xL1_base+72(FP), R9
	MOVQ  hL1_base+96(FP), R10
	MOVQ  xL2_base+120(FP), R11
	MOVQ  hL2_base+144(FP), R12
	MOVQ  nzL_base+168(FP), AX
	MOVQ  nzL_len+176(FP), DX
	XORQ  CX, CX
	TESTQ DX, DX
	JZ    quiet3

noisy3:
	VMOVUPD (DI)(CX*1), Y8
	CMULADD(SI, R8)
	CMULADD(R9, R10)
	CMULADD(R11, R12)
	VADDPD  (AX)(CX*1), Y8, Y8
	VMOVUPD Y8, (DI)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, BX
	JB      noisy3
	VZEROUPPER
	RET

quiet3:
	VMOVUPD (DI)(CX*1), Y8
	CMULADD(SI, R8)
	CMULADD(R9, R10)
	CMULADD(R11, R12)
	VMOVUPD Y8, (DI)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, BX
	JB      quiet3
	VZEROUPPER
	RET
