#include "textflag.h"

// AVX2 kernels of BatchNorm's eval sweeps (see bn_amd64.go): one lane per
// column, rows in index order, every operation the one the Go loops round —
// no fused multiply-add anywhere.

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
	MOVQ         AX, X14
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
