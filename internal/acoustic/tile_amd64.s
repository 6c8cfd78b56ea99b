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

// func rows8x16(w *float32, n int, x, dst *float32)
//
// dst[r*16+lane] = Σ_j w[r*n+j]·x[j*16+lane] for r < 8, on AVX-512F: a
// row's 16 lanes are one ZMM register, so eight rows are eight independent
// add chains, and each multiply takes its weight w[r][j] by embedded
// broadcast. x[j] is the multiply's first source and the broadcast weight
// its second; only a NaN weight could tell the two orders apart, and the
// weights are finite.
TEXT ·rows8x16(SB), NOSPLIT, $0-32
	MOVQ w+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ x+16(FP), DX
	MOVQ dst+24(FP), DI
	LEAQ (SI)(CX*4), R8
	LEAQ (R8)(CX*4), R9
	LEAQ (R9)(CX*4), R10
	LEAQ (R10)(CX*4), R11
	LEAQ (R11)(CX*4), R12
	LEAQ (R12)(CX*4), R13
	LEAQ (R13)(CX*4), BX
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	XORQ AX, AX

loop8:
	VMOVUPS (DX), Z8
	VMULPS.BCST (SI)(AX*4), Z8, Z9
	VMULPS.BCST (R8)(AX*4), Z8, Z10
	VMULPS.BCST (R9)(AX*4), Z8, Z11
	VMULPS.BCST (R10)(AX*4), Z8, Z12
	VMULPS.BCST (R11)(AX*4), Z8, Z13
	VMULPS.BCST (R12)(AX*4), Z8, Z14
	VMULPS.BCST (R13)(AX*4), Z8, Z15
	VMULPS.BCST (BX)(AX*4), Z8, Z16
	VADDPS Z9, Z0, Z0
	VADDPS Z10, Z1, Z1
	VADDPS Z11, Z2, Z2
	VADDPS Z12, Z3, Z3
	VADDPS Z13, Z4, Z4
	VADDPS Z14, Z5, Z5
	VADDPS Z15, Z6, Z6
	VADDPS Z16, Z7, Z7
	ADDQ $64, DX
	INCQ AX
	CMPQ AX, CX
	JLT loop8

	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	VMOVUPS Z4, 256(DI)
	VMOVUPS Z5, 320(DI)
	VMOVUPS Z6, 384(DI)
	VMOVUPS Z7, 448(DI)
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

// SQACC squares the sixteen float32 differences in Y11 (lanes 0–7) and Y12
// (lanes 8–15) in float64 and adds them to one mean row's four
// accumulators; Y12–Y15 are scratch. The differences are widened from a
// stack slot: VCVTPS2PD with a memory source needs no shuffle-port uop,
// where widening the upper halves in registers takes a VEXTRACTF128 and a
// lane-crossing convert each (the kernel measured ~10 % faster this way).
#define SQACC(slot, a0, a1, a2, a3) \
	VMOVUPS Y11, (slot)(SP)      \
	VMOVUPS Y12, (slot+32)(SP)   \
	VCVTPS2PD (slot)(SP), Y13    \
	VCVTPS2PD (slot+16)(SP), Y14 \
	VCVTPS2PD (slot+32)(SP), Y15 \
	VCVTPS2PD (slot+48)(SP), Y12 \
	VMULPD Y13, Y13, Y13         \
	VMULPD Y14, Y14, Y14         \
	VMULPD Y15, Y15, Y15         \
	VMULPD Y12, Y12, Y12         \
	VADDPD Y13, a0, a0           \
	VADDPD Y14, a1, a1           \
	VADDPD Y15, a2, a2           \
	VADDPD Y12, a3, a3

// SQROW advances one mean row's four accumulators by term j = AX: x is in
// Y8/Y9, Y10–Y15 are scratch.
#define SQROW(mu, slot, a0, a1, a2, a3) \
	VBROADCASTSS (mu)(AX*4), Y10 \
	VSUBPS Y10, Y8, Y11          \
	VSUBPS Y10, Y9, Y12          \
	SQACC(slot, a0, a1, a2, a3)

// LOGDENS turns one accumulator of four squared distances into float32
// log-densities in place, mixture's float32(-0.5·sq/σ² − norm) + lw: Y8
// holds −0.5, Y9 σ², Y10 norm and X11 lw, each broadcast.
#define LOGDENS(r, xr) \
	VMULPD Y8, r, r    \
	VDIVPD Y9, r, r    \
	VSUBPD Y10, r, r   \
	VCVTPD2PSY r, xr   \
	VADDPS X11, xr, xr

// GATHER loads coefficient k of the table rows whose indices ×7 are in X15
// into dst; Y14 is the mask of all lanes the gather consumes.
#define GATHER(k, dst) \
	VPCMPEQD Y14, Y14, Y14 \
	VGATHERDPD Y14, (k*8)(R9)(X15*8), dst

// LSE4 is logSumExp2 on four lanes, a in A and b in B, with R9 = &lseCoef:
// it leaves a' + softplusTable(b' − a') in A and in X8 the lanes whose
// answer that is (all ones), zero where softplusTable would report false
// (d outside (−16, 0], NaN included, or an undecided rounding test) and the
// caller must take logSumExp2Ref. Every step is lse.go's operation in
// lse.go's order, in float64 for the polynomial, no FMA: the swap
// `if a < b` (MINPS returns its first source only if it is the smaller,
// MAXPS only if it is the larger, otherwise the second — so a NaN or a pair
// of zeros stays where the unswapped `if` leaves it), d = b − a, the range
// test, i = int(−32·d) (in float32, where the product is as exact as in
// float64; out-of-range lanes get i = 0 so the gathers stay inside the
// table), t = x + (i+½)/32, Estrin from the inside out, e = y·2⁻⁴⁴, and the
// float32 roundings of y − e and y + e compared. Y8–Y15 are scratch.
#define LSE4(A, B) \
	VMINPS B, A, X10               \
	VMAXPS A, B, A                 \
	VSUBPS A, X10, B               \
	VCMPPS $0x1e, lseMinus16<>(SB), B, X8 \
	VXORPS X9, X9, X9              \
	VCMPPS $0x12, X9, B, X9        \
	VANDPS X9, X8, X8              \
	VCVTPS2PD B, Y9                \
	VMULPS lseMinus32<>(SB), B, X10 \
	VCVTTPS2DQ X10, X10            \
	VPAND X8, X10, X10             \
	VPSLLD $3, X10, X15            \
	VPSUBD X10, X15, X15           \
	VCVTDQ2PD X10, Y11             \
	VADDPD lseHalf<>(SB), Y11, Y11 \
	VMULPD lseInv32<>(SB), Y11, Y11 \
	VADDPD Y11, Y9, Y9             \
	VMULPD Y9, Y9, Y10             \
	GATHER(4, Y11)                 \
	GATHER(5, Y12)                 \
	VMULPD Y12, Y9, Y12            \
	VADDPD Y12, Y11, Y11           \
	GATHER(6, Y12)                 \
	VMULPD Y12, Y10, Y12           \
	VADDPD Y12, Y11, Y11           \
	VMULPD Y11, Y10, Y11           \
	GATHER(2, Y12)                 \
	GATHER(3, Y13)                 \
	VMULPD Y13, Y9, Y13            \
	VADDPD Y13, Y12, Y12           \
	VADDPD Y11, Y12, Y11           \
	VMULPD Y11, Y10, Y11           \
	GATHER(0, Y12)                 \
	GATHER(1, Y13)                 \
	VMULPD Y13, Y9, Y13            \
	VADDPD Y13, Y12, Y12           \
	VADDPD Y11, Y12, Y12           \
	VMULPD lseSlack<>(SB), Y12, Y13 \
	VSUBPD Y13, Y12, Y9            \
	VADDPD Y13, Y12, Y10           \
	VCVTPD2PSY Y9, X9              \
	VCVTPD2PSY Y10, X10            \
	VCMPPS $0, X10, X9, X10        \
	VANDPS X10, X8, X8             \
	VADDPS X9, A, A

// STORE4 writes lane q*4+l of A to rows[q*4+l] + R11 for l < 4 and ORs the
// quarter's fallback lanes (the zero lanes of X8) into R10 at bit 4q.
#define STORE4(q, A) \
	MOVQ ((q*4+0)*8)(R13), DI    \
	VMOVSS A, (DI)(R11*1)        \
	MOVQ ((q*4+1)*8)(R13), DI    \
	VEXTRACTPS $1, A, (DI)(R11*1) \
	MOVQ ((q*4+2)*8)(R13), DI    \
	VEXTRACTPS $2, A, (DI)(R11*1) \
	MOVQ ((q*4+3)*8)(R13), DI    \
	VEXTRACTPS $3, A, (DI)(R11*1) \
	VMOVMSKPS X8, DI             \
	XORQ $15, DI                 \
	SHLQ $(4*q), DI              \
	ORQ DI, R10

// func gmmTile(mu *float32, dim, senones int, x *float32, rows *[16]*float32, fb *uint16, variance, norm float64, lw float32)
//
// The GMM's whole pass for one 16-frame tile: for each of the senones whose
// two component-mean rows follow each other from mu, every lane's squared
// distances (SQROW: sqDist's operations in sqDist's order, eight add
// chains), the two log-densities (LOGDENS) and their log-sum-exp (LSE4),
// written to rows[lane][s] for s = 1, 2, ... The lanes LSE4 leaves to the
// reference are flagged in fb[s-1], bit lane; their rows hold garbage until
// the caller overwrites them.
TEXT ·gmmTile(SB), NOSPLIT, $128-68
	MOVQ mu+0(FP), SI
	MOVQ dim+8(FP), CX
	MOVQ senones+16(FP), BX
	MOVQ rows+32(FP), R13
	MOVQ fb+40(FP), R14
	LEAQ ·lseCoef(SB), R9
	MOVQ $4, R11

senone:
	MOVQ x+24(FP), DX
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

dist:
	VMOVUPS (DX), Y8
	VMOVUPS 32(DX), Y9
	SQROW(SI, 0, Y0, Y1, Y2, Y3)
	SQROW(R8, 64, Y4, Y5, Y6, Y7)
	ADDQ $64, DX
	INCQ AX
	CMPQ AX, CX
	JLT dist

	VBROADCASTSD lseNegHalf<>(SB), Y8
	VBROADCASTSD variance+48(FP), Y9
	VBROADCASTSD norm+56(FP), Y10
	VBROADCASTSS lw+64(FP), X11
	LOGDENS(Y0, X0)
	LOGDENS(Y1, X1)
	LOGDENS(Y2, X2)
	LOGDENS(Y3, X3)
	LOGDENS(Y4, X4)
	LOGDENS(Y5, X5)
	LOGDENS(Y6, X6)
	LOGDENS(Y7, X7)

	XORQ R10, R10
	LSE4(X0, X4)
	STORE4(0, X0)
	LSE4(X1, X5)
	STORE4(1, X1)
	LSE4(X2, X6)
	STORE4(2, X2)
	LSE4(X3, X7)
	STORE4(3, X3)
	MOVW R10, (R14)

	ADDQ $2, R14
	ADDQ $4, R11
	LEAQ (SI)(CX*8), SI
	DECQ BX
	JNZ senone

	VZEROUPPER
	RET

// GATHER8 loads the eight float32s at base + 4·idx[off/4 + l], l < 8, into
// dst: one component mean's term j for eight senone lanes. R12 points at
// the lanes' index vector; Y14 and Y15 are scratch (the gather consumes
// its mask).
#define GATHER8(base, off, dst) \
	VPCMPEQD Y15, Y15, Y15   \
	VMOVDQU off(R12), Y14    \
	VGATHERDPS Y15, (base)(Y14*4), dst

// func gmmSenones(mu *float32, dim int, idx *[16]int32, x *float32, rows *[16]*float32, fb *uint16, variance, norm float64, lw float32)
//
// gmmTile turned sideways: the sixteen lanes are sixteen senones of one
// frame, not one senone of sixteen frames. Lane l's two component-mean rows
// start idx[l] floats past mu. Per term j the frame's x[j] is broadcast and
// each lane's mean[j] gathered, so x − mean, its float64 square and the
// running sum are sqDist's operations in sqDist's order, as in gmmTile;
// LOGDENS, LSE4 and STORE4 then run unchanged, writing lane l to *rows[l].
// The lanes LSE4 leaves to the reference are flagged in *fb, bit l.
TEXT ·gmmSenones(SB), NOSPLIT, $128-68
	MOVQ mu+0(FP), SI
	MOVQ dim+8(FP), CX
	MOVQ idx+16(FP), R12
	MOVQ x+24(FP), DX
	MOVQ rows+32(FP), R13
	MOVQ fb+40(FP), R14
	LEAQ ·lseCoef(SB), R9
	XORQ R11, R11
	LEAQ (SI)(CX*4), R8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

term:
	VBROADCASTSS (DX), Y8
	GATHER8(SI, 0, Y10)
	VSUBPS Y10, Y8, Y11
	GATHER8(SI, 32, Y10)
	VSUBPS Y10, Y8, Y12
	SQACC(0, Y0, Y1, Y2, Y3)
	GATHER8(R8, 0, Y10)
	VSUBPS Y10, Y8, Y11
	GATHER8(R8, 32, Y10)
	VSUBPS Y10, Y8, Y12
	SQACC(64, Y4, Y5, Y6, Y7)
	ADDQ $4, SI
	ADDQ $4, R8
	ADDQ $4, DX
	DECQ CX
	JNZ term

	VBROADCASTSD lseNegHalf<>(SB), Y8
	VBROADCASTSD variance+48(FP), Y9
	VBROADCASTSD norm+56(FP), Y10
	VBROADCASTSS lw+64(FP), X11
	LOGDENS(Y0, X0)
	LOGDENS(Y1, X1)
	LOGDENS(Y2, X2)
	LOGDENS(Y3, X3)
	LOGDENS(Y4, X4)
	LOGDENS(Y5, X5)
	LOGDENS(Y6, X6)
	LOGDENS(Y7, X7)

	XORQ R10, R10
	LSE4(X0, X4)
	STORE4(0, X0)
	LSE4(X1, X5)
	STORE4(1, X1)
	LSE4(X2, X6)
	STORE4(2, X2)
	LSE4(X3, X7)
	STORE4(3, X3)
	MOVW R10, (R14)

	VZEROUPPER
	RET

// func lseTile(a, b, dst *float32, fb *uint8, n int)
//
// LSE4 alone, for the tests: dst[i] = logSumExp2(a[i], b[i]) through the
// same instructions gmmTile runs, four lanes at a time (n a positive
// multiple of 4), and fb[i/4] the quad's fallback lanes as gmmTile flags
// them. A flagged lane's dst is garbage.
TEXT ·lseTile(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DX
	MOVQ dst+16(FP), DI
	MOVQ fb+24(FP), R14
	MOVQ n+32(FP), CX
	LEAQ ·lseCoef(SB), R9

quad:
	VMOVUPS (SI), X0
	VMOVUPS (DX), X4
	LSE4(X0, X4)
	VMOVUPS X0, (DI)
	VMOVMSKPS X8, AX
	XORQ $15, AX
	MOVB AX, (R14)
	ADDQ $16, SI
	ADDQ $16, DX
	ADDQ $16, DI
	INCQ R14
	SUBQ $4, CX
	JGT quad

	VZEROUPPER
	RET

DATA lseNegHalf<>+0(SB)/8, $-0.5
GLOBL lseNegHalf<>(SB), RODATA|NOPTR, $8

DATA lseMinus16<>+0(SB)/4, $0xc1800000
DATA lseMinus16<>+4(SB)/4, $0xc1800000
DATA lseMinus16<>+8(SB)/4, $0xc1800000
DATA lseMinus16<>+12(SB)/4, $0xc1800000
GLOBL lseMinus16<>(SB), RODATA|NOPTR, $16

DATA lseMinus32<>+0(SB)/4, $0xc2000000
DATA lseMinus32<>+4(SB)/4, $0xc2000000
DATA lseMinus32<>+8(SB)/4, $0xc2000000
DATA lseMinus32<>+12(SB)/4, $0xc2000000
GLOBL lseMinus32<>(SB), RODATA|NOPTR, $16

DATA lseHalf<>+0(SB)/8, $0.5
DATA lseHalf<>+8(SB)/8, $0.5
DATA lseHalf<>+16(SB)/8, $0.5
DATA lseHalf<>+24(SB)/8, $0.5
GLOBL lseHalf<>(SB), RODATA|NOPTR, $32

DATA lseInv32<>+0(SB)/8, $0.03125
DATA lseInv32<>+8(SB)/8, $0.03125
DATA lseInv32<>+16(SB)/8, $0.03125
DATA lseInv32<>+24(SB)/8, $0.03125
GLOBL lseInv32<>(SB), RODATA|NOPTR, $32

DATA lseSlack<>+0(SB)/8, $0x3d30000000000000
DATA lseSlack<>+8(SB)/8, $0x3d30000000000000
DATA lseSlack<>+16(SB)/8, $0x3d30000000000000
DATA lseSlack<>+24(SB)/8, $0x3d30000000000000
GLOBL lseSlack<>(SB), RODATA|NOPTR, $32

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
