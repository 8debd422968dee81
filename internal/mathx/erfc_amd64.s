#include "textflag.h"

// Every instruction that touches a vector register is VEX-encoded and
// VZEROUPPER precedes the RET. No VFMADD: a fused product would round
// once where Erfc and Exp round twice.

// Row offsets into ·erfcLanes, 32 bytes a row.
#define ABS 0
#define SIGN 32
#define TINY 64
#define QUARTER 96
#define C84 128
#define C125 160
#define CB 192
#define SIX 224
#define C28 256
#define HALF 288
#define ONE 320
#define TWO 352
#define ONEPERX 384
#define ONEMERX 416
#define ZMASK 448
#define C5625 480
#define LOG2E 512
#define LN2U 544
#define LN2L 576
#define SIXTEENTH 608
#define E8 640
#define E7 672
#define E6 704
#define E5 736
#define E4 768
#define E3 800
#define BIAS 832
#define DSHIFT 864
#define IDX 896
#define ZERO 928
#define NUM 960
#define DEN 1216

// Frame slots: per four-lane group A (lanes 0-3) and B (lanes 4-7),
// the x < 0 mask, the constant-lane mask and R/S; the four Exp calls'
// integer exponents.
#define SIGNA 0
#define SIGNB 32
#define CONSTA 64
#define CONSTB 96
#define YA 128
#define YB 160
#define K0 192
#define K1 208
#define K2 224
#define K3 240

// Compare predicates: quiet, false when either operand is NaN.
#define LT 0x11
#define GE 0x1d
#define GT 0x1e

// CLASSIFY loads four lanes of x at OFF(SI) into A as |x| and saves
// their x < 0 mask at SIGNS(SP) and their constant-lane mask, |x| >= 28
// or x < -6 (erfc is 0 or 2 there), at CONSTS(SP) and in C.
#define CLASSIFY(OFF, A, C, T, SIGNS, CONSTS) \
	VMOVUPD OFF(SI), A;               \
	VCMPPD  $LT, ZERO(R8), A, T;      \
	VMOVUPD T, SIGNS(SP);             \
	VANDPD  ABS(R8), A, A;            \
	VCMPPD  $GT, SIX(R8), A, C;       \
	VANDPD  T, C, C;                  \
	VCMPPD  $GE, C28(R8), A, T;       \
	VORPD   T, C, C;                  \
	VMOVUPD C, CONSTS(SP)

// FITINDEX sets I, for the four lanes of A = |x|, to the VPERMPS
// dword pair (2i, 2i+1) of the range index i (0 below 0.84375, 1 below
// 1.25, 2 below 1/0.35, 3 above): the three masks count -1 per dword.
// T1-T3 are scratch.
#define FITINDEX(A, I, T1, T2, T3) \
	VCMPPD  $GE, C84(R8), A, T1;  \
	VCMPPD  $GE, C125(R8), A, T2; \
	VCMPPD  $GE, CB(R8), A, T3;   \
	VPADDD  T2, T1, I;            \
	VPADDD  T3, I, I;             \
	VPADDD  I, I, I;              \
	VMOVDQU IDX(R8), T3;          \
	VPSUBD  I, T3, I

// FITVAR sets V to the fit variable s: a*a below 0.84375, a-1 below
// 1.25, 1/(a*a) above, with T1 = a >= 0.84375 and T2 = a >= 1.25 from
// FITINDEX; T1 and T3 are scratch.
#define FITVAR(A, V, T1, T2, T3) \
	VMULPD    A, A, V;        \
	VSUBPD    ONE(R8), A, T3; \
	VBLENDVPD T1, T3, V, T3;  \
	VMOVUPD   ONE(R8), T1;    \
	VDIVPD    V, T1, T1;      \
	VBLENDVPD T2, T1, T3, V

// HORNER advances the Horner sum ACC by one coefficient: ACC·V plus
// the lane's column of the row at ROW, picked by VPERMPS with I, via
// TMP.
#define HORNER(ROW, V, I, ACC, TMP) \
	VMULPD  V, ACC, ACC;      \
	VPERMPS ROW(R8), I, TMP;  \
	VADDPD  TMP, ACC, ACC

// EXPARGS forms the tail's two Exp arguments for the four lanes of
// A = |x| with Y = R/S: U1 = -z*z - 0.5625 and U2 = (z-a)*(z+a) + R/S,
// z = a with its low 32 bits cleared. T is scratch.
#define EXPARGS(A, Y, U1, U2, T) \
	VANDPD ZMASK(R8), A, T;   \
	VMULPD T, T, U1;          \
	VXORPD SIGN(R8), U1, U1;  \
	VSUBPD C5625(R8), U1, U1; \
	VSUBPD A, T, U2;          \
	VADDPD A, T, T;           \
	VMULPD T, U2, U2;         \
	VADDPD Y, U2, U2

// The EXP macros replace four lanes of U with Exp(U), for arguments in
// [-785, 0], the range erfc feeds them: Exp's operations in Exp's
// order. EXP4 runs four such Exps (sixteen lanes) a step at a time, so
// their chains interleave. P and T (with XT its low half) are scratch;
// KS(SP) holds the lanes' exponents k in between.
//
// EXPREDUCE: k = VCVTPD2DQ(u·log2e), which rounds to nearest even as
// CVTSD2SL does; r = ((u - ln2U·k) - ln2L·k)·(1/16).
#define EXPREDUCE(U, P, T, XT, KS) \
	VMULPD     LOG2E(R8), U, T;     \
	VCVTPD2DQY T, XT;               \
	VMOVDQU    XT, KS(SP);          \
	VCVTDQ2PD  XT, P;               \
	VMULPD     LN2U(R8), P, T;      \
	VSUBPD     T, U, U;             \
	VMULPD     LN2L(R8), P, T;      \
	VSUBPD     T, U, U;             \
	VMULPD     SIXTEENTH(R8), U, U

// EXPSTEP: one step of the Taylor series in P, p = (p + C)·r.
#define EXPSTEP(U, P, C) \
	VADDPD C(R8), P, P; \
	VMULPD U, P, P

// EXPSQUARE: y = y·(2 + y), one of the four squarings undoing 1/16.
#define EXPSQUARE(U, P) \
	VADDPD TWO(R8), U, P; \
	VMULPD P, U, U

// EXPSCALE: the ldexp step on 64-bit integer lanes with e = k+0x3FF. A
// lane with e > 0 is scaled by 2^k and then by 1 (exact), any other by
// 2^(k+1022) and then by 2^-1022, Exp's subnormal path. Where Exp
// returns 0 early (e < -52) that product rounds to +0 too, since
// 1+y < 2 and k+1022 > -1022 on this range.
#define EXPSCALE(U, P, T, KS) \
	VPMOVSXDQ KS(SP), P;        \
	VPADDQ    BIAS(R8), P, P;   \
	VPCMPGTQ  ZERO(R8), P, T;   \
	VPANDN    DSHIFT(R8), T, T; \
	VPSLLQ    $52, P, P;        \
	VPADDQ    T, P, P;          \
	VMULPD    P, U, U;          \
	VMOVDQU   ONE(R8), P;       \
	VPSUBQ    T, P, P;          \
	VMULPD    P, U, U

#define EXP4STEP(C) \
	EXPSTEP(Y2, Y6, C);  \
	EXPSTEP(Y3, Y8, C);  \
	EXPSTEP(Y4, Y10, C); \
	EXPSTEP(Y5, Y12, C)

#define EXP4SQUARE \
	EXPSQUARE(Y2, Y6);  \
	EXPSQUARE(Y3, Y8);  \
	EXPSQUARE(Y4, Y10); \
	EXPSQUARE(Y5, Y12)

// EXP4 takes Exp of Y2, Y3, Y4 and Y5 in place, with Y6-Y13 scratch:
// y = r·p after the series, four squarings, 1 + y, then the scale.
#define EXP4 \
	EXPREDUCE(Y2, Y6, Y7, X7, K0);    \
	EXPREDUCE(Y3, Y8, Y9, X9, K1);    \
	EXPREDUCE(Y4, Y10, Y11, X11, K2); \
	EXPREDUCE(Y5, Y12, Y13, X13, K3); \
	VMULPD E8(R8), Y2, Y6;            \
	VMULPD E8(R8), Y3, Y8;            \
	VMULPD E8(R8), Y4, Y10;           \
	VMULPD E8(R8), Y5, Y12;           \
	EXP4STEP(E7);                     \
	EXP4STEP(E6);                     \
	EXP4STEP(E5);                     \
	EXP4STEP(E4);                     \
	EXP4STEP(E3);                     \
	EXP4STEP(HALF);                   \
	VADDPD ONE(R8), Y6, Y6;           \
	VADDPD ONE(R8), Y8, Y8;           \
	VADDPD ONE(R8), Y10, Y10;         \
	VADDPD ONE(R8), Y12, Y12;         \
	VMULPD Y6, Y2, Y2;                \
	VMULPD Y8, Y3, Y3;                \
	VMULPD Y10, Y4, Y4;               \
	VMULPD Y12, Y5, Y5;               \
	EXP4SQUARE;                       \
	EXP4SQUARE;                       \
	EXP4SQUARE;                       \
	EXP4SQUARE;                       \
	VADDPD ONE(R8), Y2, Y2;           \
	VADDPD ONE(R8), Y3, Y3;           \
	VADDPD ONE(R8), Y4, Y4;           \
	VADDPD ONE(R8), Y5, Y5;           \
	EXPSCALE(Y2, Y6, Y7, K0);         \
	EXPSCALE(Y3, Y8, Y9, K1);         \
	EXPSCALE(Y4, Y10, Y11, K2);       \
	EXPSCALE(Y5, Y12, Y13, K3)

// The FINISH macros store erfc of the four lanes at OFF(SI) to
// OFF(DI), from A = |x|, Q = r/a, R/S at YS(SP) and the masks at
// SIGNS(SP) and CONSTS(SP):
//	below 2^-56:   1 ± a;
//	below 0.25:    1 ± (a + a*y);
//	below 0.84375: 1 ± (0.5 + (a*y + (a-0.5)));
//	below 1.25:    (1+erx) + y for x < 0, (1-erx) - y otherwise;
//	the tail:      2 - r/a for x < 0, 0 + r/a = r/a otherwise;
//	constant:      2 for x < 0, +0 otherwise,
// each as base + u, subtraction being addition of the negation: u is
// -temp, -y or r/a, its sign flipped where x < 0. T1-T5 carry from one
// macro to the next; FINISH4 interleaves two groups a macro at a time.
//
// FINISH1: T1 = y, T3 = a + a*y, T4 = 0.5 + (a*y + (a-0.5)).
#define FINISH1(A, YS, T1, T2, T3, T4) \
	VMOVUPD YS(SP), T1;       \
	VMULPD  T1, A, T2;        \
	VADDPD  T2, A, T3;        \
	VSUBPD  HALF(R8), A, T4;  \
	VADDPD  T4, T2, T4;       \
	VADDPD  HALF(R8), T4, T4

// FINISH2: T4 = -(temp below 0.84375, y below 1.25); T5 = a >= 0.84375.
#define FINISH2(A, T1, T3, T4, T5) \
	VCMPPD    $LT, QUARTER(R8), A, T5; \
	VBLENDVPD T5, T3, T4, T4;          \
	VCMPPD    $LT, TINY(R8), A, T5;    \
	VBLENDVPD T5, A, T4, T4;           \
	VCMPPD    $GE, C84(R8), A, T5;     \
	VBLENDVPD T5, T1, T4, T4;          \
	VXORPD    SIGN(R8), T4, T4

// FINISH3: T4 = u, T3 = a >= 1.25, T1 = the x < 0 mask.
#define FINISH3(A, Q, SIGNS, T1, T2, T3, T4) \
	VCMPPD    $GE, C125(R8), A, T3; \
	VBLENDVPD T3, Q, T4, T4;        \
	VMOVUPD   SIGNS(SP), T1;        \
	VANDPD    SIGN(R8), T1, T2;     \
	VXORPD    T2, T4, T4

// FINISH4: Q = base.
#define FINISH4(Q, T1, T2, T3, T5) \
	VMOVUPD   ONEMERX(R8), T2;         \
	VBLENDVPD T1, ONEPERX(R8), T2, T2; \
	VMOVUPD   ONE(R8), Q;              \
	VBLENDVPD T5, T2, Q, Q;            \
	VANDPD    TWO(R8), T1, T2;         \
	VBLENDVPD T3, T2, Q, Q

// FINISH5: base + u, or base in the constant lanes, stored.
#define FINISH5(OFF, Q, CONSTS, T1, T4) \
	VADDPD    T4, Q, T4;      \
	VMOVUPD   CONSTS(SP), T1; \
	VBLENDVPD T1, Q, T4, T4;  \
	VMOVUPD   T4, OFF(DI)

// func erfcAVX2(dst, src []float64)
//
// Eight lanes per step, as two four-lane groups A and B whose
// dependency chains interleave. A step whose eight lanes are all
// constant stores 2 or +0 at once; one with no tail lane ([1.25, 28)
// less the constant lanes) skips the Exp calls, leaving r = 0, which
// keeps r/a a NaN in NaN lanes.
TEXT ·erfcAVX2(SB), $256-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), BX
	LEAQ ·erfcLanes(SB), R8
	SHRQ $3, BX

loop:
	CLASSIFY(0, Y0, Y2, Y4, SIGNA, CONSTA)
	CLASSIFY(32, Y1, Y3, Y5, SIGNB, CONSTB)
	VANDPD    Y3, Y2, Y4
	VMOVMSKPD Y4, AX
	CMPL      AX, $15
	JEQ       constant

	// R/S per lane, both zero-padded to R of degree 7 and
	// S = 1 + s·(degree 7).
	FITINDEX(Y0, Y4, Y8, Y9, Y10)
	FITINDEX(Y1, Y6, Y11, Y12, Y13)
	FITVAR(Y0, Y5, Y8, Y9, Y10)
	FITVAR(Y1, Y7, Y11, Y12, Y13)
	VPERMPS NUM+224(R8), Y4, Y8
	VPERMPS DEN+224(R8), Y4, Y10
	VPERMPS NUM+224(R8), Y6, Y12
	VPERMPS DEN+224(R8), Y6, Y14
	HORNER(NUM+192, Y5, Y4, Y8, Y9)
	HORNER(DEN+192, Y5, Y4, Y10, Y11)
	HORNER(NUM+192, Y7, Y6, Y12, Y13)
	HORNER(DEN+192, Y7, Y6, Y14, Y15)
	HORNER(NUM+160, Y5, Y4, Y8, Y9)
	HORNER(DEN+160, Y5, Y4, Y10, Y11)
	HORNER(NUM+160, Y7, Y6, Y12, Y13)
	HORNER(DEN+160, Y7, Y6, Y14, Y15)
	HORNER(NUM+128, Y5, Y4, Y8, Y9)
	HORNER(DEN+128, Y5, Y4, Y10, Y11)
	HORNER(NUM+128, Y7, Y6, Y12, Y13)
	HORNER(DEN+128, Y7, Y6, Y14, Y15)
	HORNER(NUM+96, Y5, Y4, Y8, Y9)
	HORNER(DEN+96, Y5, Y4, Y10, Y11)
	HORNER(NUM+96, Y7, Y6, Y12, Y13)
	HORNER(DEN+96, Y7, Y6, Y14, Y15)
	HORNER(NUM+64, Y5, Y4, Y8, Y9)
	HORNER(DEN+64, Y5, Y4, Y10, Y11)
	HORNER(NUM+64, Y7, Y6, Y12, Y13)
	HORNER(DEN+64, Y7, Y6, Y14, Y15)
	HORNER(NUM+32, Y5, Y4, Y8, Y9)
	HORNER(DEN+32, Y5, Y4, Y10, Y11)
	HORNER(NUM+32, Y7, Y6, Y12, Y13)
	HORNER(DEN+32, Y7, Y6, Y14, Y15)
	HORNER(NUM+0, Y5, Y4, Y8, Y9)
	HORNER(DEN+0, Y5, Y4, Y10, Y11)
	HORNER(NUM+0, Y7, Y6, Y12, Y13)
	HORNER(DEN+0, Y7, Y6, Y14, Y15)
	VMULPD  Y5, Y10, Y10
	VMULPD  Y7, Y14, Y14
	VADDPD  ONE(R8), Y10, Y10
	VADDPD  ONE(R8), Y14, Y14
	VDIVPD  Y10, Y8, Y8
	VDIVPD  Y14, Y12, Y12
	VMOVUPD Y8, YA(SP)
	VMOVUPD Y12, YB(SP)

	// The tail lanes: a >= 1.25 and not constant.
	VCMPPD    $GE, C125(R8), Y0, Y4
	VCMPPD    $GE, C125(R8), Y1, Y5
	VANDNPD   Y4, Y2, Y4
	VANDNPD   Y5, Y3, Y5
	VORPD     Y5, Y4, Y4
	VMOVMSKPD Y4, AX
	TESTL     AX, AX
	JZ        noexp

	// r = Exp(-z*z-0.5625) * Exp((z-a)*(z+a)+R/S), four Exps at once.
	EXPARGS(Y0, Y8, Y2, Y3, Y9)
	EXPARGS(Y1, Y12, Y4, Y5, Y13)
	EXP4
	VMULPD Y3, Y2, Y2
	VMULPD Y5, Y4, Y4
	JMP    tail

noexp:
	VXORPD Y2, Y2, Y2
	VXORPD Y4, Y4, Y4

tail:
	VDIVPD Y0, Y2, Y2
	VDIVPD Y1, Y4, Y4
	FINISH1(Y0, YA, Y6, Y7, Y8, Y9)
	FINISH1(Y1, YB, Y11, Y12, Y13, Y14)
	FINISH2(Y0, Y6, Y8, Y9, Y10)
	FINISH2(Y1, Y11, Y13, Y14, Y15)
	FINISH3(Y0, Y2, SIGNA, Y6, Y7, Y8, Y9)
	FINISH3(Y1, Y4, SIGNB, Y11, Y12, Y13, Y14)
	FINISH4(Y2, Y6, Y7, Y8, Y10)
	FINISH4(Y4, Y11, Y12, Y13, Y15)
	FINISH5(0, Y2, CONSTA, Y6, Y9)
	FINISH5(32, Y4, CONSTB, Y11, Y14)
	JMP next

constant:
	VMOVUPD SIGNA(SP), Y4
	VMOVUPD SIGNB(SP), Y5
	VANDPD  TWO(R8), Y4, Y4
	VANDPD  TWO(R8), Y5, Y5
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)

next:
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ BX
	JNZ  loop
	VZEROUPPER
	RET
