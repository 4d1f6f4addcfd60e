#include "textflag.h"

// AVX2 kernels of BatchNorm's sweeps, forward and backward, and of Linear's
// gradient adds (see bn_amd64.go): one lane per column, rows in index order,
// every operation the one the Go loops round — no fused multiply-add anywhere.

// func colSums16(sum, x *float32, rows, stride int)
//
// sum[0:16] += x[r·stride : r·stride+16] for r = 0 … rows−1, in that order:
// two independent chains, as one VADDPS chain waits out its own latency.
TEXT ·colSums16(SB), NOSPLIT, $0-32
	MOVQ    sum+0(FP), DI
	MOVQ    x+8(FP), SI
	MOVQ    rows+16(FP), CX
	MOVQ    stride+24(FP), DX
	SHLQ    $2, DX
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	TESTQ   CX, CX
	JZ      sums16done

sums16:
	VADDPS (SI), Y0, Y0
	VADDPS 32(SI), Y1, Y1
	ADDQ   DX, SI
	DECQ   CX
	JNZ    sums16

sums16done:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VZEROUPPER
	RET

// func colSums8(sum, x *float32, rows, stride int)
TEXT ·colSums8(SB), NOSPLIT, $0-32
	MOVQ    sum+0(FP), DI
	MOVQ    x+8(FP), SI
	MOVQ    rows+16(FP), CX
	MOVQ    stride+24(FP), DX
	SHLQ    $2, DX
	VMOVUPS (DI), Y0
	TESTQ   CX, CX
	JZ      sums8done

sums8:
	VADDPS (SI), Y0, Y0
	ADDQ   DX, SI
	DECQ   CX
	JNZ    sums8

sums8done:
	VMOVUPS Y0, (DI)
	VZEROUPPER
	RET

// func colSqDevs16(sq, x, mean *float32, rows, stride int)
//
// sq[0:16] += (x[r·stride+j] − mean[j])², r ascending; the difference, its
// square and the sum are three roundings, as in the Go loop.
TEXT ·colSqDevs16(SB), NOSPLIT, $0-40
	MOVQ    sq+0(FP), DI
	MOVQ    x+8(FP), SI
	MOVQ    mean+16(FP), BX
	MOVQ    rows+24(FP), CX
	MOVQ    stride+32(FP), DX
	SHLQ    $2, DX
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (BX), Y2
	VMOVUPS 32(BX), Y3
	TESTQ   CX, CX
	JZ      devs16done

devs16:
	VMOVUPS (SI), Y4
	VMOVUPS 32(SI), Y5
	VSUBPS  Y2, Y4, Y4
	VSUBPS  Y3, Y5, Y5
	VMULPS  Y4, Y4, Y4
	VMULPS  Y5, Y5, Y5
	VADDPS  Y4, Y0, Y0
	VADDPS  Y5, Y1, Y1
	ADDQ    DX, SI
	DECQ    CX
	JNZ     devs16

devs16done:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VZEROUPPER
	RET

// func colSqDevs8(sq, x, mean *float32, rows, stride int)
TEXT ·colSqDevs8(SB), NOSPLIT, $0-40
	MOVQ    sq+0(FP), DI
	MOVQ    x+8(FP), SI
	MOVQ    mean+16(FP), BX
	MOVQ    rows+24(FP), CX
	MOVQ    stride+32(FP), DX
	SHLQ    $2, DX
	VMOVUPS (DI), Y0
	VMOVUPS (BX), Y2
	TESTQ   CX, CX
	JZ      devs8done

devs8:
	VMOVUPS (SI), Y4
	VSUBPS  Y2, Y4, Y4
	VMULPS  Y4, Y4, Y4
	VADDPS  Y4, Y0, Y0
	ADDQ    DX, SI
	DECQ    CX
	JNZ     devs8

devs8done:
	VMOVUPS Y0, (DI)
	VZEROUPPER
	RET

// BNVAL leaves in v the normalised value of the 8 columns at src:
// γ·((x−mean)·invStd)+β with mean, invStd, γ, β in Y1–Y4, then ReLU where the
// mask Y14 is all ones: v ≤ 0 (VCMPPS $2: LE, ordered, so false on a NaN,
// which passes) clears the lane to +0, −0 included.
#define BNVAL(src, v) \
	VMOVUPS src, v;         \
	VSUBPS  Y1, v, v;       \
	VMULPS  Y2, v, v;       \
	VMULPS  v, Y3, v;       \
	VADDPS  Y4, v, v;       \
	VCMPPS  $2, Y15, v, Y6; \
	VANDPS  Y14, Y6, Y6;    \
	VANDNPS v, Y6, v

// func bnApply8(dst, x, gamma, beta, mean, invStd *float32, groups, k, cols, stride int, relu bool)
//
// dst row g, columns [0, cols), cols a multiple of 8, is the maximum over x
// rows [g·k, (g+1)·k) of BNVAL, for g in [0, groups): the group's first row
// seeds it and a later one replaces it only when greater — VMAXPS returns its
// second source on a NaN or on two zeros, so those keep the running value as
// the Go select does. Both matrices have a row stride of stride floats;
// k = 1 pools nothing and then dst may be x.
TEXT ·bnApply8(SB), NOSPLIT, $0-81
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         gamma+16(FP), R8
	MOVQ         beta+24(FP), R9
	MOVQ         mean+32(FP), R10
	MOVQ         invStd+40(FP), R11
	MOVQ         k+56(FP), R13
	MOVQ         cols+64(FP), BX
	MOVQ         stride+72(FP), DX
	SHLQ         $2, BX
	SHLQ         $2, DX
	IMULQ        DX, R13          // bytes of x in one group
	MOVBQZX      relu+80(FP), AX
	NEGQ         AX
	VMOVQ        AX, X14
	VPBROADCASTQ X14, Y14
	VXORPS       Y15, Y15, Y15

group:
	XORQ CX, CX

strip:
	VMOVUPS (R10)(CX*1), Y1
	VMOVUPS (R11)(CX*1), Y2
	VMOVUPS (R8)(CX*1), Y3
	VMOVUPS (R9)(CX*1), Y4
	LEAQ    (SI)(CX*1), AX
	BNVAL((AX), Y0)
	MOVQ    k+56(FP), R12
	DECQ    R12
	JZ      pooled

row:
	ADDQ   DX, AX
	BNVAL((AX), Y5)
	VMAXPS Y0, Y5, Y0
	DECQ   R12
	JNZ    row

pooled:
	VMOVUPS Y0, (DI)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, BX
	JLT     strip
	ADDQ    R13, SI
	ADDQ    DX, DI
	DECQ    groups+48(FP)
	JNZ     group
	VZEROUPPER
	RET

// GRADTERM adds one row's terms of BatchNorm.Backward's first pass for the 8
// columns at xs, gs: x̂ = (x−mean)·invStd with mean, invStd in m, s, then the
// gradient g, zeroed where γ·x̂+β (γ, β in gm, bt) is not > 0 — VCMPPS GT_OQ,
// false on a NaN, which passed's !(y > 0) zeroes too — unless Y13 (all ones
// without ReLU) keeps every lane; then sg += g and sgh += g·x̂. Y12 is zero;
// Y14 and Y15 are scratch. Each operation is the Go loop's, operands in its
// order.
#define GRADTERM(xs, gs, m, s, gm, bt, sg, sgh) \
	VMOVUPS xs, Y14;                 \
	VSUBPS  m, Y14, Y14;             \
	VMULPS  s, Y14, Y14;             \
	VMULPS  Y14, gm, Y15;            \
	VADDPS  bt, Y15, Y15;            \
	VCMPPS  $0x1e, Y12, Y15, Y15;    \
	VORPS   Y13, Y15, Y15;           \
	VANDPS  gs, Y15, Y15;            \
	VADDPS  Y15, sg, sg;             \
	VMULPS  Y14, Y15, Y15;           \
	VADDPS  Y15, sgh, sgh

// func bnGradSums16(sumG, sumGH, x, grad, mean, invStd, gamma, beta *float32, rows, stride int, relu bool)
//
// sumG[0:16] += g and sumGH[0:16] += g·x̂ over rows r = 0 … rows−1 of x and
// grad, in that order (GRADTERM; both matrices have a row stride of stride
// floats): BatchNorm.Backward's first pass, a lane per column, as four chains.
TEXT ·bnGradSums16(SB), NOSPLIT, $0-81
	MOVBQZX      relu+80(FP), AX
	DECQ         AX                 // 0 with ReLU, all ones without
	VMOVQ        AX, X13
	VPBROADCASTQ X13, Y13
	VXORPS       Y12, Y12, Y12
	MOVQ         mean+32(FP), AX
	VMOVUPS      (AX), Y4
	VMOVUPS      32(AX), Y5
	MOVQ         invStd+40(FP), AX
	VMOVUPS      (AX), Y6
	VMOVUPS      32(AX), Y7
	MOVQ         gamma+48(FP), AX
	VMOVUPS      (AX), Y8
	VMOVUPS      32(AX), Y9
	MOVQ         beta+56(FP), AX
	VMOVUPS      (AX), Y10
	VMOVUPS      32(AX), Y11
	MOVQ         sumG+0(FP), DI
	MOVQ         sumGH+8(FP), R8
	MOVQ         x+16(FP), SI
	MOVQ         grad+24(FP), DX
	MOVQ         rows+64(FP), CX
	MOVQ         stride+72(FP), BX
	SHLQ         $2, BX
	VMOVUPS      (DI), Y0
	VMOVUPS      32(DI), Y1
	VMOVUPS      (R8), Y2
	VMOVUPS      32(R8), Y3
	TESTQ        CX, CX
	JZ           gsums16done

gsums16:
	GRADTERM((SI), (DX), Y4, Y6, Y8, Y10, Y0, Y2)
	GRADTERM(32(SI), 32(DX), Y5, Y7, Y9, Y11, Y1, Y3)
	ADDQ BX, SI
	ADDQ BX, DX
	DECQ CX
	JNZ  gsums16

gsums16done:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (R8)
	VMOVUPS Y3, 32(R8)
	VZEROUPPER
	RET

// func bnGradSums8(sumG, sumGH, x, grad, mean, invStd, gamma, beta *float32, rows, stride int, relu bool)
TEXT ·bnGradSums8(SB), NOSPLIT, $0-81
	MOVBQZX      relu+80(FP), AX
	DECQ         AX
	VMOVQ        AX, X13
	VPBROADCASTQ X13, Y13
	VXORPS       Y12, Y12, Y12
	MOVQ         mean+32(FP), AX
	VMOVUPS      (AX), Y4
	MOVQ         invStd+40(FP), AX
	VMOVUPS      (AX), Y6
	MOVQ         gamma+48(FP), AX
	VMOVUPS      (AX), Y8
	MOVQ         beta+56(FP), AX
	VMOVUPS      (AX), Y10
	MOVQ         sumG+0(FP), DI
	MOVQ         sumGH+8(FP), R8
	MOVQ         x+16(FP), SI
	MOVQ         grad+24(FP), DX
	MOVQ         rows+64(FP), CX
	MOVQ         stride+72(FP), BX
	SHLQ         $2, BX
	VMOVUPS      (DI), Y0
	VMOVUPS      (R8), Y2
	TESTQ        CX, CX
	JZ           gsums8done

gsums8:
	GRADTERM((SI), (DX), Y4, Y6, Y8, Y10, Y0, Y2)
	ADDQ BX, SI
	ADDQ BX, DX
	DECQ CX
	JNZ  gsums8

gsums8done:
	VMOVUPS Y0, (DI)
	VMOVUPS Y2, (R8)
	VZEROUPPER
	RET

// func bnGradApply8(dst, x, grad, mean, invStd, gamma, beta, scale, sumG, sumGH *float32, n float32, rows, cols, stride int, relu bool)
//
// dst[r][j] = scale·((n·g − Σg) − x̂·Σg·x̂) for columns [0, cols), cols a
// multiple of 8, of rows r in [0, rows), rows ≥ 1: BatchNorm.Backward's second
// pass, with x̂ and the masked g as in GRADTERM and scale = (γ·invStd)/n per
// column. VMULPS and VSUBPS only, each the Go expression's, operands in its
// order. The three matrices have a row stride of stride floats.
TEXT ·bnGradApply8(SB), NOSPLIT, $0-113
	MOVBQZX      relu+112(FP), AX
	DECQ         AX
	VMOVQ        AX, X13
	VPBROADCASTQ X13, Y13
	VXORPS       Y12, Y12, Y12
	VBROADCASTSS n+80(FP), Y14
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         grad+16(FP), DX
	MOVQ         mean+24(FP), R8
	MOVQ         invStd+32(FP), R9
	MOVQ         gamma+40(FP), R10
	MOVQ         beta+48(FP), R11
	MOVQ         scale+56(FP), R12
	MOVQ         sumG+64(FP), R13
	MOVQ         sumGH+72(FP), R14
	MOVQ         cols+96(FP), BX
	MOVQ         stride+104(FP), AX
	SHLQ         $2, BX
	SHLQ         $2, AX

grow:
	XORQ CX, CX

gstrip:
	VMOVUPS (SI)(CX*1), Y0
	VSUBPS  (R8)(CX*1), Y0, Y0      // x − mean
	VMULPS  (R9)(CX*1), Y0, Y0      // x̂
	VMOVUPS (R10)(CX*1), Y1
	VMULPS  Y0, Y1, Y1              // γ·x̂
	VADDPS  (R11)(CX*1), Y1, Y1     // + β
	VCMPPS  $0x1e, Y12, Y1, Y1      // > 0
	VORPS   Y13, Y1, Y1
	VANDPS  (DX)(CX*1), Y1, Y1      // g, or +0
	VMULPS  Y1, Y14, Y1             // n·g
	VSUBPS  (R13)(CX*1), Y1, Y1     // − Σg
	VMULPS  (R14)(CX*1), Y0, Y0     // x̂·Σg·x̂
	VSUBPS  Y0, Y1, Y1
	VMOVUPS (R12)(CX*1), Y2
	VMULPS  Y1, Y2, Y2              // scale·(…)
	VMOVUPS Y2, (DI)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, BX
	JLT     gstrip
	ADDQ    AX, SI
	ADDQ    AX, DX
	ADDQ    AX, DI
	DECQ    rows+88(FP)
	JNZ     grow
	VZEROUPPER
	RET

// func addTo8(dst, src *float32, n int)
//
// dst[i] += src[i] for i in [0, n), n a positive multiple of 8.
TEXT ·addTo8(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX

add8:
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    CX
	JNZ     add8
	VZEROUPPER
	RET
