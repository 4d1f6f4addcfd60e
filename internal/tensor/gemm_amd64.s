#include "textflag.h"

// AVX2 kernels of the blocked backend (see gemm_amd64.go). Every arithmetic
// instruction is a VMULPS or a VADDPS: a fused multiply-add rounds once where
// the Go kernels round twice, and would move every golden fixture.

// func cpuHasAVX2() bool
//
// CPUID.1:ECX says the CPU has AVX and the OS uses XSAVE, XCR0 that the OS
// saves the XMM and YMM halves on a context switch, CPUID.7:EBX that the
// 256-bit integer and broadcast forms exist.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XCR0: SSE state (bit 1) and AVX state (bit 2)
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX // AVX2
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func gemm4x16(out, a, b, bias *float32, rows, k, n int)
//
// out[r][0:16] = Σ_kk a[r][kk]·b[kk][0:16] + bias[0:16] for r in [0, rows):
// rows is a multiple of 4, k ≥ 1, a nil bias adds nothing; out and b have a
// row stride of n floats, a of k. A tile is 4 rows × 16 columns in Y0–Y7
// (row r in Y(2r), Y(2r+1)), zeroed, then kk ascending with the product
// rounded before it is added, then the bias: per cell the scalar kernel's
// ((0 + a₀b₀) + a₁b₁) + … + bias.
TEXT ·gemm4x16(SB), NOSPLIT, $0-56
	MOVQ  out+0(FP), DI
	MOVQ  a+8(FP), SI
	MOVQ  b+16(FP), BX
	MOVQ  bias+24(FP), DX
	MOVQ  rows+32(FP), R13
	MOVQ  k+40(FP), R11
	MOVQ  n+48(FP), R9
	SHLQ  $2, R9           // byte stride of out and b
	LEAQ  (R9)(R9*2), R10
	MOVQ  R11, R8
	IMULQ R9, R8
	ADDQ  BX, R8           // &b[k][0]: where the k loop ends
	SHLQ  $2, R11          // byte stride of a
	LEAQ  (R11)(R11*2), R12
	SHRQ  $2, R13
	JZ    done16

tile16:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   SI, AX
	MOVQ   BX, CX

k16:
	VMOVUPS      (CX), Y8
	VMOVUPS      32(CX), Y9
	VBROADCASTSS (AX), Y10
	VBROADCASTSS (AX)(R11*1), Y11
	VBROADCASTSS (AX)(R11*2), Y12
	VBROADCASTSS (AX)(R12*1), Y13
	VMULPS       Y8, Y10, Y14
	VMULPS       Y9, Y10, Y15
	VADDPS       Y14, Y0, Y0
	VADDPS       Y15, Y1, Y1
	VMULPS       Y8, Y11, Y14
	VMULPS       Y9, Y11, Y15
	VADDPS       Y14, Y2, Y2
	VADDPS       Y15, Y3, Y3
	VMULPS       Y8, Y12, Y14
	VMULPS       Y9, Y12, Y15
	VADDPS       Y14, Y4, Y4
	VADDPS       Y15, Y5, Y5
	VMULPS       Y8, Y13, Y14
	VMULPS       Y9, Y13, Y15
	VADDPS       Y14, Y6, Y6
	VADDPS       Y15, Y7, Y7
	ADDQ         $4, AX
	ADDQ         R9, CX
	CMPQ         CX, R8
	JNE          k16

	TESTQ   DX, DX
	JZ      store16
	VMOVUPS (DX), Y8
	VMOVUPS 32(DX), Y9
	VADDPS  Y8, Y0, Y0
	VADDPS  Y9, Y1, Y1
	VADDPS  Y8, Y2, Y2
	VADDPS  Y9, Y3, Y3
	VADDPS  Y8, Y4, Y4
	VADDPS  Y9, Y5, Y5
	VADDPS  Y8, Y6, Y6
	VADDPS  Y9, Y7, Y7

store16:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(R9*1)
	VMOVUPS Y3, 32(DI)(R9*1)
	VMOVUPS Y4, (DI)(R9*2)
	VMOVUPS Y5, 32(DI)(R9*2)
	VMOVUPS Y6, (DI)(R10*1)
	VMOVUPS Y7, 32(DI)(R10*1)
	LEAQ    (SI)(R11*4), SI
	LEAQ    (DI)(R9*4), DI
	DECQ    R13
	JNZ     tile16

done16:
	VZEROUPPER
	RET

// func gemm4x8(out, a, b, bias *float32, rows, k, n int)
//
// gemm4x16 over 8 columns: a tile is 4 rows × 8 columns in Y0–Y3.
TEXT ·gemm4x8(SB), NOSPLIT, $0-56
	MOVQ  out+0(FP), DI
	MOVQ  a+8(FP), SI
	MOVQ  b+16(FP), BX
	MOVQ  bias+24(FP), DX
	MOVQ  rows+32(FP), R13
	MOVQ  k+40(FP), R11
	MOVQ  n+48(FP), R9
	SHLQ  $2, R9
	LEAQ  (R9)(R9*2), R10
	MOVQ  R11, R8
	IMULQ R9, R8
	ADDQ  BX, R8
	SHLQ  $2, R11
	LEAQ  (R11)(R11*2), R12
	SHRQ  $2, R13
	JZ    done8

tile8:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   SI, AX
	MOVQ   BX, CX

k8:
	VMOVUPS      (CX), Y8
	VBROADCASTSS (AX), Y10
	VBROADCASTSS (AX)(R11*1), Y11
	VBROADCASTSS (AX)(R11*2), Y12
	VBROADCASTSS (AX)(R12*1), Y13
	VMULPS       Y8, Y10, Y10
	VMULPS       Y8, Y11, Y11
	VMULPS       Y8, Y12, Y12
	VMULPS       Y8, Y13, Y13
	VADDPS       Y10, Y0, Y0
	VADDPS       Y11, Y1, Y1
	VADDPS       Y12, Y2, Y2
	VADDPS       Y13, Y3, Y3
	ADDQ         $4, AX
	ADDQ         R9, CX
	CMPQ         CX, R8
	JNE          k8

	TESTQ   DX, DX
	JZ      store8
	VMOVUPS (DX), Y8
	VADDPS  Y8, Y0, Y0
	VADDPS  Y8, Y1, Y1
	VADDPS  Y8, Y2, Y2
	VADDPS  Y8, Y3, Y3

store8:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(R9*1)
	VMOVUPS Y2, (DI)(R9*2)
	VMOVUPS Y3, (DI)(R10*1)
	LEAQ    (SI)(R11*4), SI
	LEAQ    (DI)(R9*4), DI
	DECQ    R13
	JNZ     tile8

done8:
	VZEROUPPER
	RET

// func gemmAT4x16(out, a, b *float32, rows, k, lda, n int)
//
// out[i][0:16] += Σ_r a[r][i]·b[r][0:16] for i in [0, rows), r ascending in
// [0, k): the weight gradient aᵀ·b without a transposed copy of a. rows is a
// multiple of 4, k ≥ 1; a has a row stride of lda floats, out and b of n. A
// tile is gemm4x16's, 4 output rows × 16 columns in Y0–Y7, but loaded from
// out, so a caller may split k into blocks and run them in ascending order:
// the float32 stored between blocks is the accumulator itself. Its a-operand
// is the 4 consecutive floats a[r][i:i+4], one row of a a step.
TEXT ·gemmAT4x16(SB), NOSPLIT, $0-56
	MOVQ  out+0(FP), DI
	MOVQ  a+8(FP), SI
	MOVQ  b+16(FP), BX
	MOVQ  rows+24(FP), R13
	MOVQ  k+32(FP), R11
	MOVQ  lda+40(FP), R12
	MOVQ  n+48(FP), R9
	SHLQ  $2, R9           // byte stride of out and b
	LEAQ  (R9)(R9*2), R10
	MOVQ  R11, R8
	IMULQ R9, R8
	ADDQ  BX, R8           // &b[k][0]: where the k loop ends
	SHLQ  $2, R12          // byte stride of a
	SHRQ  $2, R13
	JZ    doneAT16

tileAT16:
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (DI)(R9*1), Y2
	VMOVUPS 32(DI)(R9*1), Y3
	VMOVUPS (DI)(R9*2), Y4
	VMOVUPS 32(DI)(R9*2), Y5
	VMOVUPS (DI)(R10*1), Y6
	VMOVUPS 32(DI)(R10*1), Y7
	MOVQ    SI, AX
	MOVQ    BX, CX

kAT16:
	VMOVUPS      (CX), Y8
	VMOVUPS      32(CX), Y9
	VBROADCASTSS (AX), Y10
	VBROADCASTSS 4(AX), Y11
	VBROADCASTSS 8(AX), Y12
	VBROADCASTSS 12(AX), Y13
	VMULPS       Y8, Y10, Y14
	VMULPS       Y9, Y10, Y15
	VADDPS       Y14, Y0, Y0
	VADDPS       Y15, Y1, Y1
	VMULPS       Y8, Y11, Y14
	VMULPS       Y9, Y11, Y15
	VADDPS       Y14, Y2, Y2
	VADDPS       Y15, Y3, Y3
	VMULPS       Y8, Y12, Y14
	VMULPS       Y9, Y12, Y15
	VADDPS       Y14, Y4, Y4
	VADDPS       Y15, Y5, Y5
	VMULPS       Y8, Y13, Y14
	VMULPS       Y9, Y13, Y15
	VADDPS       Y14, Y6, Y6
	VADDPS       Y15, Y7, Y7
	ADDQ         R12, AX
	ADDQ         R9, CX
	CMPQ         CX, R8
	JNE          kAT16

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(R9*1)
	VMOVUPS Y3, 32(DI)(R9*1)
	VMOVUPS Y4, (DI)(R9*2)
	VMOVUPS Y5, 32(DI)(R9*2)
	VMOVUPS Y6, (DI)(R10*1)
	VMOVUPS Y7, 32(DI)(R10*1)
	ADDQ    $16, SI
	LEAQ    (DI)(R9*4), DI
	DECQ    R13
	JNZ     tileAT16

doneAT16:
	VZEROUPPER
	RET

// func gemmAT4x8(out, a, b *float32, rows, k, lda, n int)
//
// gemmAT4x16 over 8 columns: a tile is 4 rows × 8 columns in Y0–Y3.
TEXT ·gemmAT4x8(SB), NOSPLIT, $0-56
	MOVQ  out+0(FP), DI
	MOVQ  a+8(FP), SI
	MOVQ  b+16(FP), BX
	MOVQ  rows+24(FP), R13
	MOVQ  k+32(FP), R11
	MOVQ  lda+40(FP), R12
	MOVQ  n+48(FP), R9
	SHLQ  $2, R9
	LEAQ  (R9)(R9*2), R10
	MOVQ  R11, R8
	IMULQ R9, R8
	ADDQ  BX, R8
	SHLQ  $2, R12
	SHRQ  $2, R13
	JZ    doneAT8

tileAT8:
	VMOVUPS (DI), Y0
	VMOVUPS (DI)(R9*1), Y1
	VMOVUPS (DI)(R9*2), Y2
	VMOVUPS (DI)(R10*1), Y3
	MOVQ    SI, AX
	MOVQ    BX, CX

kAT8:
	VMOVUPS      (CX), Y8
	VBROADCASTSS (AX), Y10
	VBROADCASTSS 4(AX), Y11
	VBROADCASTSS 8(AX), Y12
	VBROADCASTSS 12(AX), Y13
	VMULPS       Y8, Y10, Y10
	VMULPS       Y8, Y11, Y11
	VMULPS       Y8, Y12, Y12
	VMULPS       Y8, Y13, Y13
	VADDPS       Y10, Y0, Y0
	VADDPS       Y11, Y1, Y1
	VADDPS       Y12, Y2, Y2
	VADDPS       Y13, Y3, Y3
	ADDQ         R12, AX
	ADDQ         R9, CX
	CMPQ         CX, R8
	JNE          kAT8

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(R9*1)
	VMOVUPS Y2, (DI)(R9*2)
	VMOVUPS Y3, (DI)(R10*1)
	ADDQ    $16, SI
	LEAQ    (DI)(R9*4), DI
	DECQ    R13
	JNZ     tileAT8

doneAT8:
	VZEROUPPER
	RET
