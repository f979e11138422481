// AVX2/FMA micro-kernels for the batched GEMM path. The dot kernels
// (fmaDotPanel, fmaDot4x1) share one lane layout and reduction order; the
// gradient tiles (fmaTile4, fmaTile2) give every output element one FMA
// per term in source-row order. Results are therefore deterministic for a
// given binary and machine, and independent of how a product is blocked.
// Guarded at runtime by CPUID feature detection (see gemm_amd64.go).

#include "textflag.h"

// func cpuidRaw(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidRaw(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func fmaDotPanel(a, b *float64, k, npairs int, d *float64, ldd int, base *float64, ldbase int)
//
// One 4-row block of a·bᵀ against npairs consecutive b-row pairs:
// column pair p takes b rows 2p and 2p+1 (row length k, like a's four
// rows), and its eight dots land as
//
//	d[r*ldd + 2p + c] = base[r*ldbase + 2p + c] + a_r · b_{2p+c}
//
// base = d, ldbase = ldd accumulates in place (MulTAdd); base = bias,
// ldbase = 0 starts every row from the bias (MulTBias). Each pair runs
// the whole 4×2 dot body: eight 4-lane FMA accumulator chains over the
// first k &^ 3 elements, each reduced (l0+l2) + (l1+l3), then the k % 4
// tail fused into the reduced sums with scalar FMAs — the lane layout of
// fmaDot4x1, so a dot has the same bits whichever kernel computes it.
// The base value is the first operand of the final add.
TEXT ·fmaDotPanel(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), R8
	MOVQ k+16(FP), CX
	LEAQ (R8)(CX*8), R9
	LEAQ (R9)(CX*8), R10
	LEAQ (R10)(CX*8), R11
	MOVQ b+8(FP), R12
	LEAQ (R12)(CX*8), R13
	MOVQ d+32(FP), DI
	MOVQ ldd+40(FP), BX
	SHLQ $3, BX
	MOVQ base+48(FP), SI

panelpair:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX
	JZ   panelreduce

panelloop:
	VMOVUPD (R12)(AX*8), Y12
	VMOVUPD (R13)(AX*8), Y13
	VMOVUPD (R8)(AX*8), Y8
	VMOVUPD (R9)(AX*8), Y9
	VMOVUPD (R10)(AX*8), Y10
	VMOVUPD (R11)(AX*8), Y11
	VFMADD231PD Y12, Y8, Y0
	VFMADD231PD Y13, Y8, Y1
	VFMADD231PD Y12, Y9, Y2
	VFMADD231PD Y13, Y9, Y3
	VFMADD231PD Y12, Y10, Y4
	VFMADD231PD Y13, Y10, Y5
	VFMADD231PD Y12, Y11, Y6
	VFMADD231PD Y13, Y11, Y7
	ADDQ $4, AX
	CMPQ AX, DX
	JL   panelloop

panelreduce:
	// Reduce each 4-lane accumulator to its low lane: (l0+l2) + (l1+l3).
	VEXTRACTF128 $1, Y0, X8
	VADDPD       X8, X0, X0
	VPERMILPD    $1, X0, X8
	VADDSD       X8, X0, X0
	VEXTRACTF128 $1, Y1, X8
	VADDPD       X8, X1, X1
	VPERMILPD    $1, X1, X8
	VADDSD       X8, X1, X1
	VEXTRACTF128 $1, Y2, X8
	VADDPD       X8, X2, X2
	VPERMILPD    $1, X2, X8
	VADDSD       X8, X2, X2
	VEXTRACTF128 $1, Y3, X8
	VADDPD       X8, X3, X3
	VPERMILPD    $1, X3, X8
	VADDSD       X8, X3, X3
	VEXTRACTF128 $1, Y4, X8
	VADDPD       X8, X4, X4
	VPERMILPD    $1, X4, X8
	VADDSD       X8, X4, X4
	VEXTRACTF128 $1, Y5, X8
	VADDPD       X8, X5, X5
	VPERMILPD    $1, X5, X8
	VADDSD       X8, X5, X5
	VEXTRACTF128 $1, Y6, X8
	VADDPD       X8, X6, X6
	VPERMILPD    $1, X6, X8
	VADDSD       X8, X6, X6
	VEXTRACTF128 $1, Y7, X8
	VADDPD       X8, X7, X7
	VPERMILPD    $1, X7, X8
	VADDSD       X8, X7, X7

	CMPQ AX, CX
	JGE  panelstore

paneltail:
	VMOVSD (R12)(AX*8), X12
	VMOVSD (R13)(AX*8), X13
	VMOVSD (R8)(AX*8), X8
	VMOVSD (R9)(AX*8), X9
	VMOVSD (R10)(AX*8), X10
	VMOVSD (R11)(AX*8), X11
	VFMADD231SD X12, X8, X0
	VFMADD231SD X13, X8, X1
	VFMADD231SD X12, X9, X2
	VFMADD231SD X13, X9, X3
	VFMADD231SD X12, X10, X4
	VFMADD231SD X13, X10, X5
	VFMADD231SD X12, X11, X6
	VFMADD231SD X13, X11, X7
	INCQ AX
	CMPQ AX, CX
	JL   paneltail

panelstore:
	// AX and DX are free until the next pair: AX = base row stride in
	// bytes, DX = the third-row pointers.
	MOVQ   ldbase+56(FP), AX
	SHLQ   $3, AX
	VMOVSD (SI), X8
	VADDSD X0, X8, X0
	VMOVSD 8(SI), X8
	VADDSD X1, X8, X1
	VMOVSD (SI)(AX*1), X8
	VADDSD X2, X8, X2
	VMOVSD 8(SI)(AX*1), X8
	VADDSD X3, X8, X3
	VMOVSD (SI)(AX*2), X8
	VADDSD X4, X8, X4
	VMOVSD 8(SI)(AX*2), X8
	VADDSD X5, X8, X5
	LEAQ   (SI)(AX*2), DX
	VMOVSD (DX)(AX*1), X8
	VADDSD X6, X8, X6
	VMOVSD 8(DX)(AX*1), X8
	VADDSD X7, X8, X7
	VMOVSD X0, (DI)
	VMOVSD X1, 8(DI)
	VMOVSD X2, (DI)(BX*1)
	VMOVSD X3, 8(DI)(BX*1)
	VMOVSD X4, (DI)(BX*2)
	VMOVSD X5, 8(DI)(BX*2)
	LEAQ   (DI)(BX*2), DX
	VMOVSD X6, (DX)(BX*1)
	VMOVSD X7, 8(DX)(BX*1)

	ADDQ $16, DI
	ADDQ $16, SI
	LEAQ (R13)(CX*8), R12
	LEAQ (R12)(CX*8), R13
	DECQ npairs+24(FP)
	JNZ  panelpair

	VZEROUPPER
	RET

// func fmaDot4x1(r0, r1, r2, r3, x *float64, n int, out *[4]float64)
//
// out[i] = r_i · x over depth n: four rows against one shared vector (a
// matvec step, or the odd column of a dot panel). Each dot has exactly
// the lane layout of an fmaDotPanel output — one 4-lane FMA chain, lanes
// reduced (l0+l2)+(l1+l3), scalar tail fused into the reduced sum — so
// both kernels produce the same bits for the same pair of rows.
TEXT ·fmaDot4x1(SB), NOSPLIT, $0-56
	MOVQ r0+0(FP), R8
	MOVQ r1+8(FP), R9
	MOVQ r2+16(FP), R10
	MOVQ r3+24(FP), R11
	MOVQ x+32(FP), R12
	MOVQ n+40(FP), CX
	MOVQ out+48(FP), DI

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX
	JZ   quadreduce

quadloop:
	VMOVUPD (R12)(AX*8), Y12
	VMOVUPD (R8)(AX*8), Y8
	VMOVUPD (R9)(AX*8), Y9
	VMOVUPD (R10)(AX*8), Y10
	VMOVUPD (R11)(AX*8), Y11
	VFMADD231PD Y12, Y8, Y0
	VFMADD231PD Y12, Y9, Y1
	VFMADD231PD Y12, Y10, Y2
	VFMADD231PD Y12, Y11, Y3
	ADDQ $4, AX
	CMPQ AX, DX
	JL   quadloop

quadreduce:
	VEXTRACTF128 $1, Y0, X8
	VADDPD       X8, X0, X0
	VPERMILPD    $1, X0, X8
	VADDSD       X8, X0, X0
	VEXTRACTF128 $1, Y1, X8
	VADDPD       X8, X1, X1
	VPERMILPD    $1, X1, X8
	VADDSD       X8, X1, X1
	VEXTRACTF128 $1, Y2, X8
	VADDPD       X8, X2, X2
	VPERMILPD    $1, X2, X8
	VADDSD       X8, X2, X2
	VEXTRACTF128 $1, Y3, X8
	VADDPD       X8, X3, X3
	VPERMILPD    $1, X3, X8
	VADDSD       X8, X3, X3

	CMPQ AX, CX
	JGE  quadstore

quadtail:
	VMOVSD (R12)(AX*8), X12
	VMOVSD (R8)(AX*8), X8
	VMOVSD (R9)(AX*8), X9
	VMOVSD (R10)(AX*8), X10
	VMOVSD (R11)(AX*8), X11
	VFMADD231SD X12, X8, X0
	VFMADD231SD X12, X9, X1
	VFMADD231SD X12, X10, X2
	VFMADD231SD X12, X11, X3
	INCQ AX
	CMPQ AX, CX
	JL   quadtail

quadstore:
	VMOVSD X0, (DI)
	VMOVSD X1, 8(DI)
	VMOVSD X2, 16(DI)
	VMOVSD X3, 24(DI)
	VZEROUPPER
	RET

// func fmaTile4(d, a *float64, lai, lak int, b *float64, n, k int)
//
// Register tile for the gradient GEMMs: for the four dst rows r at
// d + r*n and every column j < n,
//
//	d[r*n + j] = fma(a[r*lai + kk*lak], b[kk*n + j], d[r*n + j])   kk = 0, 1, …, k-1
//
// one fused multiply-add per term, in kk order (lai/lak select MulATAdd's
// transposed or MulAdd's plain coefficient layout). Each strip of
// columns — 8 wide (two ymm per row), then 4, then 1 (scalar) — is
// loaded into registers once, swept over all k rows and stored once, so
// dst traffic no longer scales with k. Every element sees the same FMA
// chain as a row-at-a-time accumulation. k must be > 0.
TEXT ·fmaTile4(SB), NOSPLIT, $0-56
	MOVQ lai+16(FP), R8
	SHLQ $3, R8             // R8 = coefficient row stride (bytes)
	LEAQ (R8)(R8*2), R9     // R9 = 3 coefficient rows
	MOVQ lak+24(FP), R11
	SHLQ $3, R11            // R11 = coefficient step per kk (bytes)
	MOVQ n+40(FP), R13
	MOVQ R13, BX
	SHLQ $3, BX             // BX = d and b row stride (bytes)
	LEAQ (BX)(BX*2), R12    // R12 = 3 d rows
	XORQ AX, AX             // AX = strip's first column

t4strip8:
	LEAQ 8(AX), R10
	CMPQ R10, R13
	JGT  t4strip4
	MOVQ d+0(FP), DX
	LEAQ (DX)(AX*8), DX
	MOVQ a+8(FP), SI
	MOVQ b+32(FP), DI
	LEAQ (DI)(AX*8), DI
	MOVQ k+48(FP), CX
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD (DX)(BX*1), Y2
	VMOVUPD 32(DX)(BX*1), Y3
	VMOVUPD (DX)(BX*2), Y4
	VMOVUPD 32(DX)(BX*2), Y5
	VMOVUPD (DX)(R12*1), Y6
	VMOVUPD 32(DX)(R12*1), Y7

t4k8:
	VMOVUPD      (DI), Y8
	VMOVUPD      32(DI), Y9
	VBROADCASTSD (SI), Y10
	VBROADCASTSD (SI)(R8*1), Y11
	VBROADCASTSD (SI)(R8*2), Y12
	VBROADCASTSD (SI)(R9*1), Y13
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         R11, SI
	ADDQ         BX, DI
	DECQ         CX
	JNZ          t4k8

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (DX)(BX*1)
	VMOVUPD Y3, 32(DX)(BX*1)
	VMOVUPD Y4, (DX)(BX*2)
	VMOVUPD Y5, 32(DX)(BX*2)
	VMOVUPD Y6, (DX)(R12*1)
	VMOVUPD Y7, 32(DX)(R12*1)
	MOVQ    R10, AX
	JMP     t4strip8

t4strip4:
	LEAQ 4(AX), R10
	CMPQ R10, R13
	JGT  t4strip1
	MOVQ d+0(FP), DX
	LEAQ (DX)(AX*8), DX
	MOVQ a+8(FP), SI
	MOVQ b+32(FP), DI
	LEAQ (DI)(AX*8), DI
	MOVQ k+48(FP), CX
	VMOVUPD (DX), Y0
	VMOVUPD (DX)(BX*1), Y1
	VMOVUPD (DX)(BX*2), Y2
	VMOVUPD (DX)(R12*1), Y3

t4k4:
	VMOVUPD      (DI), Y8
	VBROADCASTSD (SI), Y10
	VBROADCASTSD (SI)(R8*1), Y11
	VBROADCASTSD (SI)(R8*2), Y12
	VBROADCASTSD (SI)(R9*1), Y13
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y8, Y11, Y1
	VFMADD231PD  Y8, Y12, Y2
	VFMADD231PD  Y8, Y13, Y3
	ADDQ         R11, SI
	ADDQ         BX, DI
	DECQ         CX
	JNZ          t4k4

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, (DX)(BX*1)
	VMOVUPD Y2, (DX)(BX*2)
	VMOVUPD Y3, (DX)(R12*1)
	MOVQ    R10, AX

t4strip1:
	CMPQ AX, R13
	JGE  t4done
	MOVQ d+0(FP), DX
	LEAQ (DX)(AX*8), DX
	MOVQ a+8(FP), SI
	MOVQ b+32(FP), DI
	LEAQ (DI)(AX*8), DI
	MOVQ k+48(FP), CX
	VMOVSD (DX), X0
	VMOVSD (DX)(BX*1), X1
	VMOVSD (DX)(BX*2), X2
	VMOVSD (DX)(R12*1), X3

t4k1:
	VMOVSD      (DI), X8
	VFMADD231SD (SI), X8, X0
	VFMADD231SD (SI)(R8*1), X8, X1
	VFMADD231SD (SI)(R8*2), X8, X2
	VFMADD231SD (SI)(R9*1), X8, X3
	ADDQ        R11, SI
	ADDQ        BX, DI
	DECQ        CX
	JNZ         t4k1

	VMOVSD X0, (DX)
	VMOVSD X1, (DX)(BX*1)
	VMOVSD X2, (DX)(BX*2)
	VMOVSD X3, (DX)(R12*1)
	INCQ   AX
	JMP    t4strip1

t4done:
	VZEROUPPER
	RET

// func zmmTile4(d, a *float64, lai, lak int, b *float64, n, k int)
//
// fmaTile4 on AVX-512F: the same four dst rows and the same per-element
// FMA chain in kk order, over 16-column strips (two zmm per row), then
// one strip of the remaining n % 16 columns under opmasks K1 (its first
// eight) and K2 (the rest). Masked-off lanes are loaded as zero, never
// stored and cannot fault. Dispatched for n > 8; k must be > 0.
TEXT ·zmmTile4(SB), NOSPLIT, $0-56
	MOVQ lai+16(FP), R8
	SHLQ $3, R8             // R8 = coefficient row stride (bytes)
	LEAQ (R8)(R8*2), R9     // R9 = 3 coefficient rows
	MOVQ lak+24(FP), R11
	SHLQ $3, R11            // R11 = coefficient step per kk (bytes)
	MOVQ n+40(FP), R13
	MOVQ R13, BX
	SHLQ $3, BX             // BX = d and b row stride (bytes)
	LEAQ (BX)(BX*2), R12    // R12 = 3 d rows
	XORQ AX, AX             // AX = strip's first column

z4strip16:
	LEAQ 16(AX), R10
	CMPQ R10, R13
	JGT  z4masked
	MOVQ d+0(FP), DX
	LEAQ (DX)(AX*8), DX
	MOVQ a+8(FP), SI
	MOVQ b+32(FP), DI
	LEAQ (DI)(AX*8), DI
	MOVQ k+48(FP), CX
	VMOVUPD (DX), Z0
	VMOVUPD 64(DX), Z1
	VMOVUPD (DX)(BX*1), Z2
	VMOVUPD 64(DX)(BX*1), Z3
	VMOVUPD (DX)(BX*2), Z4
	VMOVUPD 64(DX)(BX*2), Z5
	VMOVUPD (DX)(R12*1), Z6
	VMOVUPD 64(DX)(R12*1), Z7

z4k16:
	VMOVUPD      (DI), Z8
	VMOVUPD      64(DI), Z9
	VBROADCASTSD (SI), Z10
	VBROADCASTSD (SI)(R8*1), Z11
	VBROADCASTSD (SI)(R8*2), Z12
	VBROADCASTSD (SI)(R9*1), Z13
	VFMADD231PD  Z8, Z10, Z0
	VFMADD231PD  Z9, Z10, Z1
	VFMADD231PD  Z8, Z11, Z2
	VFMADD231PD  Z9, Z11, Z3
	VFMADD231PD  Z8, Z12, Z4
	VFMADD231PD  Z9, Z12, Z5
	VFMADD231PD  Z8, Z13, Z6
	VFMADD231PD  Z9, Z13, Z7
	ADDQ         R11, SI
	ADDQ         BX, DI
	DECQ         CX
	JNZ          z4k16

	VMOVUPD Z0, (DX)
	VMOVUPD Z1, 64(DX)
	VMOVUPD Z2, (DX)(BX*1)
	VMOVUPD Z3, 64(DX)(BX*1)
	VMOVUPD Z4, (DX)(BX*2)
	VMOVUPD Z5, 64(DX)(BX*2)
	VMOVUPD Z6, (DX)(R12*1)
	VMOVUPD Z7, 64(DX)(R12*1)
	MOVQ    R10, AX
	JMP     z4strip16

z4masked:
	MOVQ R13, CX
	SUBQ AX, CX             // CX = remaining columns, 0…15
	JZ   z4done
	MOVL $1, R10
	SHLL CX, R10
	DECL R10                // R10 = (1 << CX) - 1
	KMOVW   R10, K1
	KSHIFTRW $8, K1, K2
	MOVQ d+0(FP), DX
	LEAQ (DX)(AX*8), DX
	MOVQ a+8(FP), SI
	MOVQ b+32(FP), DI
	LEAQ (DI)(AX*8), DI
	MOVQ k+48(FP), CX
	VMOVUPD.Z (DX), K1, Z0
	VMOVUPD.Z 64(DX), K2, Z1
	VMOVUPD.Z (DX)(BX*1), K1, Z2
	VMOVUPD.Z 64(DX)(BX*1), K2, Z3
	VMOVUPD.Z (DX)(BX*2), K1, Z4
	VMOVUPD.Z 64(DX)(BX*2), K2, Z5
	VMOVUPD.Z (DX)(R12*1), K1, Z6
	VMOVUPD.Z 64(DX)(R12*1), K2, Z7

z4kmasked:
	VMOVUPD.Z    (DI), K1, Z8
	VMOVUPD.Z    64(DI), K2, Z9
	VBROADCASTSD (SI), Z10
	VBROADCASTSD (SI)(R8*1), Z11
	VBROADCASTSD (SI)(R8*2), Z12
	VBROADCASTSD (SI)(R9*1), Z13
	VFMADD231PD  Z8, Z10, Z0
	VFMADD231PD  Z9, Z10, Z1
	VFMADD231PD  Z8, Z11, Z2
	VFMADD231PD  Z9, Z11, Z3
	VFMADD231PD  Z8, Z12, Z4
	VFMADD231PD  Z9, Z12, Z5
	VFMADD231PD  Z8, Z13, Z6
	VFMADD231PD  Z9, Z13, Z7
	ADDQ         R11, SI
	ADDQ         BX, DI
	DECQ         CX
	JNZ          z4kmasked

	VMOVUPD Z0, K1, (DX)
	VMOVUPD Z1, K2, 64(DX)
	VMOVUPD Z2, K1, (DX)(BX*1)
	VMOVUPD Z3, K2, 64(DX)(BX*1)
	VMOVUPD Z4, K1, (DX)(BX*2)
	VMOVUPD Z5, K2, 64(DX)(BX*2)
	VMOVUPD Z6, K1, (DX)(R12*1)
	VMOVUPD Z7, K2, 64(DX)(R12*1)

z4done:
	VZEROUPPER
	RET

// func fmaTile2(d, a *float64, lai, lak int, b *float64, n, k int)
//
// The two-row form of fmaTile4, for the row pair a 4-row tiling leaves
// over: the same strips and the same per-element FMA chain.
TEXT ·fmaTile2(SB), NOSPLIT, $0-56
	MOVQ lai+16(FP), R8
	SHLQ $3, R8
	MOVQ lak+24(FP), R11
	SHLQ $3, R11
	MOVQ n+40(FP), R13
	MOVQ R13, BX
	SHLQ $3, BX
	XORQ AX, AX

t2strip8:
	LEAQ 8(AX), R10
	CMPQ R10, R13
	JGT  t2strip4
	MOVQ d+0(FP), DX
	LEAQ (DX)(AX*8), DX
	MOVQ a+8(FP), SI
	MOVQ b+32(FP), DI
	LEAQ (DI)(AX*8), DI
	MOVQ k+48(FP), CX
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD (DX)(BX*1), Y2
	VMOVUPD 32(DX)(BX*1), Y3

t2k8:
	VMOVUPD      (DI), Y8
	VMOVUPD      32(DI), Y9
	VBROADCASTSD (SI), Y10
	VBROADCASTSD (SI)(R8*1), Y11
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	ADDQ         R11, SI
	ADDQ         BX, DI
	DECQ         CX
	JNZ          t2k8

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (DX)(BX*1)
	VMOVUPD Y3, 32(DX)(BX*1)
	MOVQ    R10, AX
	JMP     t2strip8

t2strip4:
	LEAQ 4(AX), R10
	CMPQ R10, R13
	JGT  t2strip1
	MOVQ d+0(FP), DX
	LEAQ (DX)(AX*8), DX
	MOVQ a+8(FP), SI
	MOVQ b+32(FP), DI
	LEAQ (DI)(AX*8), DI
	MOVQ k+48(FP), CX
	VMOVUPD (DX), Y0
	VMOVUPD (DX)(BX*1), Y1

t2k4:
	VMOVUPD      (DI), Y8
	VBROADCASTSD (SI), Y10
	VBROADCASTSD (SI)(R8*1), Y11
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y8, Y11, Y1
	ADDQ         R11, SI
	ADDQ         BX, DI
	DECQ         CX
	JNZ          t2k4

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, (DX)(BX*1)
	MOVQ    R10, AX

t2strip1:
	CMPQ AX, R13
	JGE  t2done
	MOVQ d+0(FP), DX
	LEAQ (DX)(AX*8), DX
	MOVQ a+8(FP), SI
	MOVQ b+32(FP), DI
	LEAQ (DI)(AX*8), DI
	MOVQ k+48(FP), CX
	VMOVSD (DX), X0
	VMOVSD (DX)(BX*1), X1

t2k1:
	VMOVSD      (DI), X8
	VFMADD231SD (SI), X8, X0
	VFMADD231SD (SI)(R8*1), X8, X1
	ADDQ        R11, SI
	ADDQ        BX, DI
	DECQ        CX
	JNZ         t2k1

	VMOVSD X0, (DX)
	VMOVSD X1, (DX)(BX*1)
	INCQ   AX
	JMP    t2strip1

t2done:
	VZEROUPPER
	RET

// func vecBiasOuter(d, a *float64, rows int, b, bias *float64, n int)
//
// The depth-1 MulTBias: d[i*n + j] = bias[j] + a[i]*b[j] for rows > 0
// rows. The product rounds (VMULPD) before the add (VADDPD), as the
// scalar loop's does; the n % 4 tail runs the same two operations
// scalar. Needs AVX only, but shares the FMA kernels' gate.
TEXT ·vecBiasOuter(SB), NOSPLIT, $0-48
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ rows+16(FP), CX
	MOVQ b+24(FP), R8
	MOVQ bias+32(FP), R9
	MOVQ n+40(FP), R10
	MOVQ R10, R11
	ANDQ $-4, R11

biasrow:
	VBROADCASTSD (SI), Y0
	XORQ         AX, AX
	CMPQ         AX, R11
	JGE          biastail

biasvec:
	VMULPD  (R8)(AX*8), Y0, Y1
	VADDPD  (R9)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, R11
	JL      biasvec

biastail:
	CMPQ   AX, R10
	JGE    biasnext
	VMULSD (R8)(AX*8), X0, X1
	VADDSD (R9)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    biastail

biasnext:
	LEAQ (DI)(R10*8), DI
	ADDQ $8, SI
	DECQ CX
	JNZ  biasrow

	VZEROUPPER
	RET

// func vecAxpyComp(alpha float64, dst, comp, src *float64, n int)
//
// AxpyComp's TwoSum step four lanes at a time (n a multiple of 4):
//
//	t = alpha*v; s = t + d; bb = s - d
//	comp += (d - (s - bb)) + (t - bb)
//	d = s
//
// Every lane sees the scalar loop's IEEE operations in its order: the
// product is a VMULPD, never an FMA, so it rounds before the add, and
// there is no branch to replace. The results are therefore bit-equal to
// the scalar loop's, which is what keeps flat and tiered folds equal.
// Each two-NaN addition also takes its first source operand from the
// same value as the compiled scalar loop, so NaN payloads agree as well.
TEXT ·vecAxpyComp(SB), NOSPLIT, $0-40
	VBROADCASTSD alpha+0(FP), Y15
	MOVQ dst+8(FP), DI
	MOVQ comp+16(FP), SI
	MOVQ src+24(FP), DX
	MOVQ n+32(FP), CX
	XORQ AX, AX

compLoop:
	VMOVUPD (DX)(AX*8), Y0
	VMULPD  Y15, Y0, Y0        // t = v * alpha
	VMOVUPD (DI)(AX*8), Y1     // d
	VADDPD  Y1, Y0, Y2         // s = t + d
	VSUBPD  Y1, Y2, Y3         // bb = s - d
	VSUBPD  Y3, Y2, Y4
	VSUBPD  Y4, Y1, Y4         // d - (s - bb)
	VSUBPD  Y3, Y0, Y5         // t - bb
	VADDPD  Y5, Y4, Y4         // the rounding error of s
	VADDPD  (SI)(AX*8), Y4, Y4 // error + comp
	VMOVUPD Y4, (SI)(AX*8)
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JL      compLoop

	VZEROUPPER
	RET

// TWOSUM_STEP folds one update into a block: t = alpha*v from src, the
// running sum d into s (d and s swap roles step to step, so no register
// move is needed) and the error into the compensation register c —
// vecAxpyComp's operations, operand for operand. Clobbers v, bb and e.
#define TWOSUM_STEP(src, alpha, d, s, c, v, bb, e) \
	VMOVUPD (src)(AX*8), v \
	VMULPD alpha, v, v \
	VADDPD d, v, s \
	VSUBPD d, s, bb \
	VSUBPD bb, s, e \
	VSUBPD e, d, e \
	VSUBPD bb, v, bb \
	VADDPD bb, e, e \
	VADDPD c, e, c

// func vecAxpyComp4(alpha *[4]float64, dst, comp, s0, s1, s2, s3 *float64, n int)
//
// AxpyComp4 four lanes at a time (n a multiple of 4): each block of dst
// and comp is loaded once, takes the TwoSum step of s0, s1, s2 and s3 in
// that order, and is stored once.
TEXT ·vecAxpyComp4(SB), NOSPLIT, $0-64
	MOVQ alpha+0(FP), BX
	VBROADCASTSD (BX), Y12
	VBROADCASTSD 8(BX), Y13
	VBROADCASTSD 16(BX), Y14
	VBROADCASTSD 24(BX), Y15
	MOVQ dst+8(FP), DI
	MOVQ comp+16(FP), SI
	MOVQ s0+24(FP), R8
	MOVQ s1+32(FP), R9
	MOVQ s2+40(FP), R10
	MOVQ s3+48(FP), R11
	MOVQ n+56(FP), CX
	XORQ AX, AX

comp4Loop:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD (SI)(AX*8), Y1
	TWOSUM_STEP(R8, Y12, Y0, Y3, Y1, Y2, Y4, Y5)
	TWOSUM_STEP(R9, Y13, Y3, Y0, Y1, Y2, Y4, Y5)
	TWOSUM_STEP(R10, Y14, Y0, Y3, Y1, Y2, Y4, Y5)
	TWOSUM_STEP(R11, Y15, Y3, Y0, Y1, Y2, Y4, Y5)
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, (SI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JL      comp4Loop

	VZEROUPPER
	RET

// func zmmAxpyComp4(alpha *[4]float64, dst, comp, s0, s1, s2, s3 *float64, n int)
//
// vecAxpyComp4 on AVX-512F, eight lanes at a time (n a multiple of 8):
// the same operations on each lane in the same order.
TEXT ·zmmAxpyComp4(SB), NOSPLIT, $0-64
	MOVQ alpha+0(FP), BX
	VBROADCASTSD (BX), Z12
	VBROADCASTSD 8(BX), Z13
	VBROADCASTSD 16(BX), Z14
	VBROADCASTSD 24(BX), Z15
	MOVQ dst+8(FP), DI
	MOVQ comp+16(FP), SI
	MOVQ s0+24(FP), R8
	MOVQ s1+32(FP), R9
	MOVQ s2+40(FP), R10
	MOVQ s3+48(FP), R11
	MOVQ n+56(FP), CX
	XORQ AX, AX

zcomp4Loop:
	VMOVUPD (DI)(AX*8), Z0
	VMOVUPD (SI)(AX*8), Z1
	TWOSUM_STEP(R8, Z12, Z0, Z3, Z1, Z2, Z4, Z5)
	TWOSUM_STEP(R9, Z13, Z3, Z0, Z1, Z2, Z4, Z5)
	TWOSUM_STEP(R10, Z14, Z0, Z3, Z1, Z2, Z4, Z5)
	TWOSUM_STEP(R11, Z15, Z3, Z0, Z1, Z2, Z4, Z5)
	VMOVUPD Z0, (DI)(AX*8)
	VMOVUPD Z1, (SI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JL      zcomp4Loop

	VZEROUPPER
	RET

// func vecAnyNonFinite(v *float64, n int) bool
//
// Reports whether any of v[0:n] (n a multiple of 4, > 0) is NaN or ±Inf:
// a lane whose exponent field is all ones. Hits are OR-ed across the
// whole vector and tested once at the end.
TEXT ·vecAnyNonFinite(SB), NOSPLIT, $0-17
	MOVQ v+0(FP), SI
	MOVQ n+8(FP), CX
	VPCMPEQQ Y15, Y15, Y15
	VPSLLQ   $53, Y15, Y15
	VPSRLQ   $1, Y15, Y15 // 0x7FF0…: the exponent field
	VPXOR    Y0, Y0, Y0
	XORQ     AX, AX

finiteLoop:
	VPAND    (SI)(AX*8), Y15, Y1
	VPCMPEQQ Y15, Y1, Y1
	VPOR     Y1, Y0, Y0
	ADDQ     $4, AX
	CMPQ     AX, CX
	JL       finiteLoop

	VPTEST Y0, Y0
	SETNE  ret+16(FP)
	VZEROUPPER
	RET

// Constants for the 4-lane vectorized exp kernel (each value repeated 4×
// so it can serve directly as a 256-bit memory operand). Layout:
// log2e=0x000 ln2hi=0x020 ln2lo=0x040 one=0x060 clamp=0x080
// signmask=0x0A0 bias=0x0C0 then Taylor 1/13! ... 1/2! at 0x0E0..0x240.
DATA expconst<>+0x000(SB)/8, $0x3FF71547652B82FE
DATA expconst<>+0x008(SB)/8, $0x3FF71547652B82FE
DATA expconst<>+0x010(SB)/8, $0x3FF71547652B82FE
DATA expconst<>+0x018(SB)/8, $0x3FF71547652B82FE
DATA expconst<>+0x020(SB)/8, $0x3FE62E42FEE00000
DATA expconst<>+0x028(SB)/8, $0x3FE62E42FEE00000
DATA expconst<>+0x030(SB)/8, $0x3FE62E42FEE00000
DATA expconst<>+0x038(SB)/8, $0x3FE62E42FEE00000
DATA expconst<>+0x040(SB)/8, $0x3DEA39EF35793C76
DATA expconst<>+0x048(SB)/8, $0x3DEA39EF35793C76
DATA expconst<>+0x050(SB)/8, $0x3DEA39EF35793C76
DATA expconst<>+0x058(SB)/8, $0x3DEA39EF35793C76
DATA expconst<>+0x060(SB)/8, $0x3FF0000000000000
DATA expconst<>+0x068(SB)/8, $0x3FF0000000000000
DATA expconst<>+0x070(SB)/8, $0x3FF0000000000000
DATA expconst<>+0x078(SB)/8, $0x3FF0000000000000
DATA expconst<>+0x080(SB)/8, $0xC086200000000000
DATA expconst<>+0x088(SB)/8, $0xC086200000000000
DATA expconst<>+0x090(SB)/8, $0xC086200000000000
DATA expconst<>+0x098(SB)/8, $0xC086200000000000
DATA expconst<>+0x0a0(SB)/8, $0x8000000000000000
DATA expconst<>+0x0a8(SB)/8, $0x8000000000000000
DATA expconst<>+0x0b0(SB)/8, $0x8000000000000000
DATA expconst<>+0x0b8(SB)/8, $0x8000000000000000
DATA expconst<>+0x0c0(SB)/8, $0x00000000000003FF
DATA expconst<>+0x0c8(SB)/8, $0x00000000000003FF
DATA expconst<>+0x0d0(SB)/8, $0x00000000000003FF
DATA expconst<>+0x0d8(SB)/8, $0x00000000000003FF
DATA expconst<>+0x0e0(SB)/8, $0x3DE6124613A86D09
DATA expconst<>+0x0e8(SB)/8, $0x3DE6124613A86D09
DATA expconst<>+0x0f0(SB)/8, $0x3DE6124613A86D09
DATA expconst<>+0x0f8(SB)/8, $0x3DE6124613A86D09
DATA expconst<>+0x100(SB)/8, $0x3E21EED8EFF8D898
DATA expconst<>+0x108(SB)/8, $0x3E21EED8EFF8D898
DATA expconst<>+0x110(SB)/8, $0x3E21EED8EFF8D898
DATA expconst<>+0x118(SB)/8, $0x3E21EED8EFF8D898
DATA expconst<>+0x120(SB)/8, $0x3E5AE64567F544E4
DATA expconst<>+0x128(SB)/8, $0x3E5AE64567F544E4
DATA expconst<>+0x130(SB)/8, $0x3E5AE64567F544E4
DATA expconst<>+0x138(SB)/8, $0x3E5AE64567F544E4
DATA expconst<>+0x140(SB)/8, $0x3E927E4FB7789F5C
DATA expconst<>+0x148(SB)/8, $0x3E927E4FB7789F5C
DATA expconst<>+0x150(SB)/8, $0x3E927E4FB7789F5C
DATA expconst<>+0x158(SB)/8, $0x3E927E4FB7789F5C
DATA expconst<>+0x160(SB)/8, $0x3EC71DE3A556C734
DATA expconst<>+0x168(SB)/8, $0x3EC71DE3A556C734
DATA expconst<>+0x170(SB)/8, $0x3EC71DE3A556C734
DATA expconst<>+0x178(SB)/8, $0x3EC71DE3A556C734
DATA expconst<>+0x180(SB)/8, $0x3EFA01A01A01A01A
DATA expconst<>+0x188(SB)/8, $0x3EFA01A01A01A01A
DATA expconst<>+0x190(SB)/8, $0x3EFA01A01A01A01A
DATA expconst<>+0x198(SB)/8, $0x3EFA01A01A01A01A
DATA expconst<>+0x1a0(SB)/8, $0x3F2A01A01A01A01A
DATA expconst<>+0x1a8(SB)/8, $0x3F2A01A01A01A01A
DATA expconst<>+0x1b0(SB)/8, $0x3F2A01A01A01A01A
DATA expconst<>+0x1b8(SB)/8, $0x3F2A01A01A01A01A
DATA expconst<>+0x1c0(SB)/8, $0x3F56C16C16C16C17
DATA expconst<>+0x1c8(SB)/8, $0x3F56C16C16C16C17
DATA expconst<>+0x1d0(SB)/8, $0x3F56C16C16C16C17
DATA expconst<>+0x1d8(SB)/8, $0x3F56C16C16C16C17
DATA expconst<>+0x1e0(SB)/8, $0x3F81111111111111
DATA expconst<>+0x1e8(SB)/8, $0x3F81111111111111
DATA expconst<>+0x1f0(SB)/8, $0x3F81111111111111
DATA expconst<>+0x1f8(SB)/8, $0x3F81111111111111
DATA expconst<>+0x200(SB)/8, $0x3FA5555555555555
DATA expconst<>+0x208(SB)/8, $0x3FA5555555555555
DATA expconst<>+0x210(SB)/8, $0x3FA5555555555555
DATA expconst<>+0x218(SB)/8, $0x3FA5555555555555
DATA expconst<>+0x220(SB)/8, $0x3FC5555555555555
DATA expconst<>+0x228(SB)/8, $0x3FC5555555555555
DATA expconst<>+0x230(SB)/8, $0x3FC5555555555555
DATA expconst<>+0x238(SB)/8, $0x3FC5555555555555
DATA expconst<>+0x240(SB)/8, $0x3FE0000000000000
DATA expconst<>+0x248(SB)/8, $0x3FE0000000000000
DATA expconst<>+0x250(SB)/8, $0x3FE0000000000000
DATA expconst<>+0x258(SB)/8, $0x3FE0000000000000
GLOBL expconst<>(SB), RODATA, $608

// The vexp macro body (inlined in both panels below) computes
// Y4 = exp(Y1) for lane values in [-708, 0]:
//
//	n   = rint(x·log2e)                      (round to nearest even)
//	r   = x − n·ln2hi − n·ln2lo              (|r| ≤ ln2/2)
//	e^r = Taylor-13 Horner with FMA          (trunc. error ~4e-18)
//	e^x = e^r · 2^n                          (exponent-field construction)
//
// Total error ≤ ~2 ulp versus math.Exp; inputs are clamped at -708 so
// 2^n stays normal. The clamp MAX places the input in the NaN-returning
// operand position, so NaN lanes propagate to the result exactly as the
// scalar path's math.Exp does. Clobbers Y1-Y4; expects the constant
// registers loaded by the panel prologue: Y8=log2e Y9=ln2hi Y10=ln2lo
// Y11=one Y12=clamp Y13=signmask Y14=bias.

#define VEXP_Y1_TO_Y4 \
	VMAXPD Y1, Y12, Y1 \
	VMULPD Y8, Y1, Y2 \
	VROUNDPD $0, Y2, Y2 \
	VMOVAPD Y1, Y3 \
	VFNMADD231PD Y9, Y2, Y3 \
	VFNMADD231PD Y10, Y2, Y3 \
	VMOVUPD 224(BX), Y4 \
	VFMADD213PD 256(BX), Y3, Y4 \
	VFMADD213PD 288(BX), Y3, Y4 \
	VFMADD213PD 320(BX), Y3, Y4 \
	VFMADD213PD 352(BX), Y3, Y4 \
	VFMADD213PD 384(BX), Y3, Y4 \
	VFMADD213PD 416(BX), Y3, Y4 \
	VFMADD213PD 448(BX), Y3, Y4 \
	VFMADD213PD 480(BX), Y3, Y4 \
	VFMADD213PD 512(BX), Y3, Y4 \
	VFMADD213PD 544(BX), Y3, Y4 \
	VFMADD213PD 576(BX), Y3, Y4 \
	VFMADD213PD Y11, Y3, Y4 \
	VFMADD213PD Y11, Y3, Y4 \
	VCVTPD2DQY Y2, X2 \
	VPMOVSXDQ X2, Y2 \
	VPADDQ Y14, Y2, Y2 \
	VPSLLQ $52, Y2, Y2 \
	VMULPD Y2, Y4, Y4

#define VEXP_CONSTS \
	MOVQ $expconst<>(SB), BX \
	VMOVUPD 0(BX), Y8 \
	VMOVUPD 32(BX), Y9 \
	VMOVUPD 64(BX), Y10 \
	VMOVUPD 96(BX), Y11 \
	VMOVUPD 128(BX), Y12 \
	VMOVUPD 160(BX), Y13 \
	VMOVUPD 192(BX), Y14

// func fmaSigmoidPanel(v *float64, n int)
//
// v[i] = σ(v[i]) four lanes at a time: p = 1/(1+exp(-|x|)) then a sign
// blend selects p or 1−p. n must be a multiple of 4 (the Go wrapper
// routes the remainder through the scalar form).
TEXT ·fmaSigmoidPanel(SB), NOSPLIT, $0-16
	MOVQ v+0(FP), DI
	MOVQ n+8(FP), CX
	VEXP_CONSTS
	XORQ AX, AX

sigloop:
	VMOVUPD (DI)(AX*8), Y0
	VORPD   Y13, Y0, Y1
	VEXP_Y1_TO_Y4
	VADDPD Y11, Y4, Y5
	VDIVPD Y5, Y11, Y6
	VSUBPD Y6, Y11, Y7
	VBLENDVPD Y0, Y7, Y6, Y6
	VMOVUPD Y6, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JL   sigloop

	VZEROUPPER
	RET

// func fmaTanhPanel(v *float64, n int)
//
// v[i] = tanh(v[i]) via t = exp(-2|x|), |tanh| = (1−t)/(1+t), sign
// reapplied bitwise. n must be a multiple of 4.
TEXT ·fmaTanhPanel(SB), NOSPLIT, $0-16
	MOVQ v+0(FP), DI
	MOVQ n+8(FP), CX
	VEXP_CONSTS
	XORQ AX, AX

tanhloop:
	VMOVUPD (DI)(AX*8), Y0
	VORPD   Y13, Y0, Y1
	VADDPD  Y1, Y1, Y1
	VEXP_Y1_TO_Y4
	VSUBPD Y4, Y11, Y5
	VADDPD Y11, Y4, Y6
	VDIVPD Y6, Y5, Y5
	VANDPD Y13, Y0, Y2
	VORPD  Y2, Y5, Y5
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JL   tanhloop

	VZEROUPPER
	RET
