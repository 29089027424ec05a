#include "textflag.h"

// COLSUM(P) leaves in P the column sums t(x) of colSum for four consecutive
// x, in colSum's association: ((((w0a0+w1a1)+w2a2)+w3a3)+w4a4) +
// (((w5a5+w6a6)+w7a7)+w8a8). SI, R9 and R10 point at rows 0, 3 and 6 of the
// bundle and BX holds sy in bytes; Y0–Y8 hold the broadcast weights. Y14 and
// Y15 are clobbered.
#define COLSUM(P) \
	VMULPD (SI), Y0, P         \
	VMULPD (SI)(BX*1), Y1, Y15 \
	VADDPD Y15, P, P           \
	VMULPD (SI)(BX*2), Y2, Y15 \
	VADDPD Y15, P, P           \
	VMULPD (R9), Y3, Y15       \
	VADDPD Y15, P, P           \
	VMULPD (R9)(BX*1), Y4, Y15 \
	VADDPD Y15, P, P           \
	VMULPD (R9)(BX*2), Y5, Y14 \
	VMULPD (R10), Y6, Y15      \
	VADDPD Y15, Y14, Y14       \
	VMULPD (R10)(BX*1), Y7, Y15 \
	VADDPD Y15, Y14, Y14       \
	VMULPD (R10)(BX*2), Y8, Y15 \
	VADDPD Y15, Y14, Y14       \
	VADDPD Y14, P, P

// func applyRowAVX(dst, src *float64, sy, sz, blocks int, w *[9]float64, q *[3]float64)
//
// Block k (0 ≤ k < blocks) writes dst[4k+2 … 4k+5] from the column sums
// t(4k … 4k+7); src is row 0 of the bundle at x = 0. Requires blocks ≥ 1.
TEXT ·applyRowAVX(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ sy+16(FP), BX
	MOVQ sz+24(FP), DX
	MOVQ blocks+32(FP), CX
	MOVQ w+40(FP), AX
	MOVQ q+48(FP), R8
	SHLQ $3, BX
	SHLQ $3, DX
	LEAQ (SI)(DX*1), R9
	LEAQ (R9)(DX*1), R10

	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	VBROADCASTSD 32(AX), Y4
	VBROADCASTSD 40(AX), Y5
	VBROADCASTSD 48(AX), Y6
	VBROADCASTSD 56(AX), Y7
	VBROADCASTSD 64(AX), Y8
	VBROADCASTSD 0(R8), Y9
	VBROADCASTSD 8(R8), Y10
	VBROADCASTSD 16(R8), Y11

	// Y12 = t(4k … 4k+3), carried from block to block.
	COLSUM(Y12)

loop:
	ADDQ $32, SI
	ADDQ $32, R9
	ADDQ $32, R10
	COLSUM(Y13)                    // t(4k+4 … 4k+7)
	VPERM2F128 $0x21, Y13, Y12, Y14 // t₊ = t(4k+2 … 4k+5)
	VSHUFPD $5, Y14, Y12, Y15      // t₀ = t(4k+1 … 4k+4)
	VMULPD Y9, Y12, Y12
	VMULPD Y10, Y15, Y15
	VADDPD Y15, Y12, Y12
	VMULPD Y11, Y14, Y14
	VADDPD Y14, Y12, Y12
	VMOVUPD Y12, 16(DI)
	VMOVAPD Y13, Y12
	ADDQ $32, DI
	DECQ CX
	JNZ  loop

	VZEROUPPER
	RET

// func cpuHasAVX() bool
//
// CPUID.1:ECX reports AVX (bit 28) and OSXSAVE (bit 27); XGETBV then says
// whether the OS saves the XMM and YMM state (XCR0 bits 1 and 2).
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
