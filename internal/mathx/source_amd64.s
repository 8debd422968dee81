#include "textflag.h"

// func seedAVX2(vec *[607]int64, pow *[3][608]uint64, cooked *[607]int64, x uint64)
//
// For words i = 0, 4, ..., 600, four lanes at a time:
//	r_k = pow[k][i] * x mod (2^31-1), k = 0, 1, 2
//	vec[i] = r_0<<40 ^ r_1<<20 ^ r_2 ^ cooked[i]
// The product of two residues below 2^31 fits in 62 bits, so VPMULUDQ
// (32x32->64 per lane) forms it exactly. Folding p&M + p>>31 twice
// reduces it to [1, M-1]: the first fold leaves at most 2^32-2, the
// second at most M, and M itself cannot occur because M is prime and
// neither factor is 0 mod M. The constant reaches X1 through VMOVQ: a
// legacy-SSE MOVQ after the YMM broadcast stalls on some hosts.
TEXT ·seedAVX2(SB), NOSPLIT, $0-32
	MOVQ vec+0(FP), DI
	MOVQ pow+8(FP), SI
	MOVQ cooked+16(FP), DX
	VPBROADCASTQ x+24(FP), Y0
	MOVQ $0x7fffffff, AX
	VMOVQ AX, X1
	VPBROADCASTQ X1, Y1
	XORQ CX, CX
	MOVQ $151, BX

loop:
	VPMULUDQ (SI)(CX*1), Y0, Y2
	VPAND    Y1, Y2, Y3
	VPSRLQ   $31, Y2, Y2
	VPADDQ   Y3, Y2, Y2
	VPAND    Y1, Y2, Y3
	VPSRLQ   $31, Y2, Y2
	VPADDQ   Y3, Y2, Y2
	VPSLLQ   $40, Y2, Y2

	VPMULUDQ 4864(SI)(CX*1), Y0, Y4
	VPAND    Y1, Y4, Y3
	VPSRLQ   $31, Y4, Y4
	VPADDQ   Y3, Y4, Y4
	VPAND    Y1, Y4, Y3
	VPSRLQ   $31, Y4, Y4
	VPADDQ   Y3, Y4, Y4
	VPSLLQ   $20, Y4, Y4
	VPXOR    Y4, Y2, Y2

	VPMULUDQ 9728(SI)(CX*1), Y0, Y4
	VPAND    Y1, Y4, Y3
	VPSRLQ   $31, Y4, Y4
	VPADDQ   Y3, Y4, Y4
	VPAND    Y1, Y4, Y3
	VPSRLQ   $31, Y4, Y4
	VPADDQ   Y3, Y4, Y4
	VPXOR    Y4, Y2, Y2

	VPXOR   (DX)(CX*1), Y2, Y2
	VMOVDQU Y2, (DI)(CX*1)
	ADDQ    $32, CX
	DECQ    BX
	JNZ     loop

	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
