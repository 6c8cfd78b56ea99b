#include "textflag.h"

// The tile kernels (see tile_amd64.go). A tile is 16 frames in
// frame-minor layout, x[j*16+lane], so one weight w[i][j] (or one GMM mean
// mu[j]) broadcast against the two YMM halves of x[j] advances all 16
// frames' sums by one term. In the DNN's row kernels every lane performs
// exactly dot's operations in dot's order: start from +0, j ascending, one
// rounded multiply then one rounded add (no FMA).

// func rows4x16(w *float32, n int, x, dst *float32)
//
// dst[r*16+lane] = Σ_j w[r*n+j]·x[j*16+lane] for r < 4: eight independent
// add chains (4 rows × 2 halves) hide the add latency.
TEXT ·rows4x16(SB), NOSPLIT, $0-32
	MOVQ w+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ x+16(FP), DX
	MOVQ dst+24(FP), DI
	LEAQ (SI)(CX*4), R8
	LEAQ (R8)(CX*4), R9
	LEAQ (R9)(CX*4), R10
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ AX, AX

loop4:
	VMOVUPS (DX), Y8
	VMOVUPS 32(DX), Y9
	VBROADCASTSS (SI)(AX*4), Y10
	VBROADCASTSS (R8)(AX*4), Y11
	VMULPS Y8, Y10, Y12
	VMULPS Y9, Y10, Y13
	VMULPS Y8, Y11, Y14
	VMULPS Y9, Y11, Y15
	VADDPS Y12, Y0, Y0
	VADDPS Y13, Y1, Y1
	VADDPS Y14, Y2, Y2
	VADDPS Y15, Y3, Y3
	VBROADCASTSS (R9)(AX*4), Y10
	VBROADCASTSS (R10)(AX*4), Y11
	VMULPS Y8, Y10, Y12
	VMULPS Y9, Y10, Y13
	VMULPS Y8, Y11, Y14
	VMULPS Y9, Y11, Y15
	VADDPS Y12, Y4, Y4
	VADDPS Y13, Y5, Y5
	VADDPS Y14, Y6, Y6
	VADDPS Y15, Y7, Y7
	ADDQ $64, DX
	INCQ AX
	CMPQ AX, CX
	JLT loop4

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	VZEROUPPER
	RET

// func rows1x16(w *float32, n int, x, dst *float32)
//
// dst[lane] = Σ_j w[j]·x[j*16+lane]: one row, for rows that are not
// contiguous with their neighbours and for row-count remainders.
TEXT ·rows1x16(SB), NOSPLIT, $0-32
	MOVQ w+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ x+16(FP), DX
	MOVQ dst+24(FP), DI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	XORQ AX, AX

loop1:
	VBROADCASTSS (SI)(AX*4), Y10
	VMULPS (DX), Y10, Y12
	VMULPS 32(DX), Y10, Y13
	VADDPS Y12, Y0, Y0
	VADDPS Y13, Y1, Y1
	ADDQ $64, DX
	INCQ AX
	CMPQ AX, CX
	JLT loop1

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VZEROUPPER
	RET

// SQROW advances one mean row's four accumulators by term j = AX: x is in
// Y8/Y9, Y10–Y15 are scratch.
#define SQROW(mu, a0, a1, a2, a3) \
	VBROADCASTSS (mu)(AX*4), Y10 \
	VSUBPS Y10, Y8, Y11          \
	VSUBPS Y10, Y9, Y12          \
	VCVTPS2PD X11, Y13           \
	VEXTRACTF128 $1, Y11, X11    \
	VCVTPS2PD X11, Y14           \
	VCVTPS2PD X12, Y15           \
	VEXTRACTF128 $1, Y12, X12    \
	VCVTPS2PD X12, Y12           \
	VMULPD Y13, Y13, Y13         \
	VMULPD Y14, Y14, Y14         \
	VMULPD Y15, Y15, Y15         \
	VMULPD Y12, Y12, Y12         \
	VADDPD Y13, a0, a0           \
	VADDPD Y14, a1, a1           \
	VADDPD Y15, a2, a2           \
	VADDPD Y12, a3, a3

// func sqDist2x16(mu *float32, n int, x *float32, dst *float64)
//
// The GMM's distances: dst[r*16+lane] = Σ_j (x[j*16+lane] − mu[r*n+j])² for
// the two component-mean rows r of one senone. Every lane performs exactly
// sqDist's operations in sqDist's order: the difference x − mu rounded to
// float32, widened to float64 (the four 128-bit quarters of the 16 lanes
// become four YMM of doubles), squared, and added to an accumulator started
// from +0, j ascending, no FMA. Eight add chains (2 rows × 4 quarters).
TEXT ·sqDist2x16(SB), NOSPLIT, $0-32
	MOVQ mu+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ x+16(FP), DX
	MOVQ dst+24(FP), DI
	LEAQ (SI)(CX*4), R8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ AX, AX

sqloop:
	VMOVUPS (DX), Y8
	VMOVUPS 32(DX), Y9
	SQROW(SI, Y0, Y1, Y2, Y3)
	SQROW(R8, Y4, Y5, Y6, Y7)
	ADDQ $64, DX
	INCQ AX
	CMPQ AX, CX
	JLT sqloop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// func reluTile(v *float32, n int)
//
// v[i] = 0 where v[i] < 0, n a positive multiple of 8. MAXPS returns its
// second source when either operand is NaN or both are zero, so with v in
// that slot NaN and -0 pass through untouched, as `if x < 0 { x = 0 }`
// leaves them.
TEXT ·reluTile(SB), NOSPLIT, $0-16
	MOVQ v+0(FP), DI
	MOVQ n+8(FP), CX
	VXORPS Y0, Y0, Y0

relu:
	VMOVUPS (DI), Y1
	VMAXPS Y1, Y0, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, DI
	SUBQ $8, CX
	JGT relu

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
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
