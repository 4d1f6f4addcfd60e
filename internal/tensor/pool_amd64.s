#include "textflag.h"

// AVX2 kernel of the train-mode max-pool with argmax (see pool_amd64.go): one
// lane per column, rows of a group in index order. It compares and blends;
// nothing is rounded.

// func maxPoolArg8(out *float32, argmax *int32, grouped *float32, groups, k, cols, stride, row0 int)
//
// out row g, columns [0, cols), cols a multiple of 8, is the maximum over
// grouped rows [g·k, (g+1)·k), and argmax row g holds row0 + the grouped row
// it came from, for g in [0, groups). The group's first row seeds both; a
// later row replaces a lane only where VCMPPS GT_OQ finds it strictly
// greater, which is false on a NaN either side: a tie keeps the lower row,
// and a NaN neither replaces nor is replaced — maxPoolArgCols' rule. All three
// matrices have a row stride of stride elements.
TEXT ·maxPoolArg8(SB), NOSPLIT, $0-64
	MOVQ         out+0(FP), DI
	MOVQ         argmax+8(FP), R8
	MOVQ         grouped+16(FP), SI
	MOVQ         k+32(FP), R10
	MOVQ         cols+40(FP), BX
	MOVQ         stride+48(FP), DX
	SHLQ         $2, BX
	SHLQ         $2, DX
	MOVQ         R10, R11
	IMULQ        DX, R11            // bytes of grouped in one group
	MOVQ         row0+56(FP), AX
	VMOVD        AX, X3
	VPBROADCASTD X3, Y3             // the group's first row
	VMOVD        R10, X4
	VPBROADCASTD X4, Y4             // k: from one group's first row to the next
	MOVL         $1, AX
	VMOVD        AX, X5
	VPBROADCASTD X5, Y5             // 1: from one row to the next

group:
	XORQ CX, CX

strip:
	LEAQ      (SI)(CX*1), AX
	VMOVUPS   (AX), Y0              // running maximum
	VMOVDQU   Y3, Y1                // its row
	VMOVDQU   Y3, Y2                // the row at AX
	MOVQ      R10, R12
	DECQ      R12
	JZ        pooled

row:
	ADDQ      DX, AX
	VPADDD    Y5, Y2, Y2
	VMOVUPS   (AX), Y6
	VCMPPS    $0x1e, Y0, Y6, Y7     // v > max: GT_OQ
	VBLENDVPS Y7, Y6, Y0, Y0
	VBLENDVPS Y7, Y2, Y1, Y1
	DECQ      R12
	JNZ       row

pooled:
	VMOVUPS Y0, (DI)(CX*1)
	VMOVDQU Y1, (R8)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, BX
	JLT     strip
	ADDQ    R11, SI
	ADDQ    DX, DI
	ADDQ    DX, R8
	VPADDD  Y4, Y3, Y3
	DECQ    groups+24(FP)
	JNZ     group
	VZEROUPPER
	RET
