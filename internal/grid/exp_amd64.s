#include "textflag.h"

// The constants of math.archExp (GOROOT/src/math/exp_amd64.s), each
// repeated in four lanes, with the sign bit that negates a sum and the
// exponent bias that ldexp adds.
#define LANES(off, v) \
	DATA expc<>+(off+0)(SB)/8, v  \
	DATA expc<>+(off+8)(SB)/8, v  \
	DATA expc<>+(off+16)(SB)/8, v \
	DATA expc<>+(off+24)(SB)/8, v

LANES(0, $0x8000000000000000)                                // sign
LANES(32, $1.4426950408889634073599246810018920)             // LOG2E
LANES(64, $0.69314718055966295651160180568695068359375)      // LN2U
LANES(96, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
LANES(128, $0.0625)
LANES(160, $2.4801587301587301587e-5)
LANES(192, $1.9841269841269841270e-4)
LANES(224, $1.3888888888888888889e-3)
LANES(256, $8.3333333333333333333e-3)
LANES(288, $4.1666666666666666667e-2)
LANES(320, $1.6666666666666666667e-1)
LANES(352, $0.5)
LANES(384, $1.0)
LANES(416, $2.0)
DATA expc<>+448(SB)/4, $0x3FF
DATA expc<>+452(SB)/4, $0x3FF
DATA expc<>+456(SB)/4, $0x3FF
DATA expc<>+460(SB)/4, $0x3FF
GLOBL expc<>(SB), RODATA|NOPTR, $464

// func expRowAVX(dst, x2 *float64, blocks int, y2, z2, den float64)
//
// Block k (0 ≤ k < blocks) writes dst[4k … 4k+3] = exp(-((x2+y2)+z2)/den)
// of x2[4k … 4k+3]: the sum, negation and division of the Go expression,
// then math.archExp's avxfma path lane by lane — its reduction, its Horner
// steps and doublings in their order, and the ldexp multiply of its normal
// branch. Every argument must lie in [-708, 708], where that path
// takes neither its denormal nor its overflow branch. Requires blocks ≥ 1.
TEXT ·expRowAVX(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ x2+8(FP), SI
	MOVQ blocks+16(FP), CX
	VBROADCASTSD y2+24(FP), Y13
	VBROADCASTSD z2+32(FP), Y14
	VBROADCASTSD den+40(FP), Y15

loop:
	VMOVUPD (SI), Y0
	VADDPD Y13, Y0, Y0
	VADDPD Y14, Y0, Y0
	VXORPD expc<>+0(SB), Y0, Y0
	VDIVPD Y15, Y0, Y0             // x = -((x2+y2)+z2)/den

	VMULPD expc<>+32(SB), Y0, Y1   // x·LOG2E
	VCVTPD2DQY Y1, X2              // k, rounded to nearest
	VCVTDQ2PD X2, Y1
	VFNMADD231PD expc<>+64(SB), Y1, Y0 // x −= k·LN2U, fused
	VFNMADD231PD expc<>+96(SB), Y1, Y0 // x −= k·LN2L, fused
	VMULPD expc<>+128(SB), Y0, Y0

	VMOVUPD expc<>+160(SB), Y3     // Taylor series, fused Horner steps
	VFMADD213PD expc<>+192(SB), Y0, Y3
	VFMADD213PD expc<>+224(SB), Y0, Y3
	VFMADD213PD expc<>+256(SB), Y0, Y3
	VFMADD213PD expc<>+288(SB), Y0, Y3
	VFMADD213PD expc<>+320(SB), Y0, Y3
	VFMADD213PD expc<>+352(SB), Y0, Y3
	VFMADD213PD expc<>+384(SB), Y0, Y3
	VMULPD Y3, Y0, Y0

	VADDPD expc<>+416(SB), Y0, Y3  // four doublings x·(x+2), the last +1 fused
	VMULPD Y3, Y0, Y0
	VADDPD expc<>+416(SB), Y0, Y3
	VMULPD Y3, Y0, Y0
	VADDPD expc<>+416(SB), Y0, Y3
	VMULPD Y3, Y0, Y0
	VADDPD expc<>+416(SB), Y0, Y3
	VFMADD213PD expc<>+384(SB), Y3, Y0

	VPADDD expc<>+448(SB), X2, X2  // ldexp: ·2^k as (k+1023)<<52
	VPMOVZXDQ X2, Y4
	VPSLLQ $52, Y4, Y4
	VMULPD Y4, Y0, Y0

	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop

	VZEROUPPER
	RET

// func cpuHasAVX2FMA() bool
//
// CPUID.1:ECX reports FMA (bit 12), OSXSAVE (bit 27) and AVX (bit 28);
// XGETBV says whether the OS saves the XMM and YMM state (XCR0 bits 1 and
// 2); CPUID.7.0:EBX reports AVX2 (bit 5), once leaf 7 exists.
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18001000, CX
	CMPL CX, $0x18001000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
