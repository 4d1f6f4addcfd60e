#include "textflag.h"

// ApplyPlan's AVX2 kernel (see applyPlanGo in interp.go): eight columns a
// lane block, each output ((0 + w0·r0) + w1·r1) + w2·r2 with every product
// and sum rounded on its own, in the Go loop's operand order, and no fused
// multiply-add.

// tailMask<>+4·(8−r) is the load and store mask of a last block of r < 8
// columns: r lanes of ones, then zeros.
DATA tailMask<>+0(SB)/4, $-1
DATA tailMask<>+4(SB)/4, $-1
DATA tailMask<>+8(SB)/4, $-1
DATA tailMask<>+12(SB)/4, $-1
DATA tailMask<>+16(SB)/4, $-1
DATA tailMask<>+20(SB)/4, $-1
DATA tailMask<>+24(SB)/4, $-1
DATA tailMask<>+28(SB)/4, $-1
DATA tailMask<>+32(SB)/4, $0
DATA tailMask<>+36(SB)/4, $0
DATA tailMask<>+40(SB)/4, $0
DATA tailMask<>+44(SB)/4, $0
DATA tailMask<>+48(SB)/4, $0
DATA tailMask<>+52(SB)/4, $0
DATA tailMask<>+56(SB)/4, $0
DATA tailMask<>+60(SB)/4, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// func applyPlan3(dst *float32, ld int, src *float32, featDim int, idx *int32, w *float32, targets int)
//
// targets ≥ 1; every idx entry is a row of src. The masked loads and stores
// of a ragged last block touch no column past featDim, of src or of dst.
TEXT ·applyPlan3(SB), NOSPLIT, $0-56
	MOVQ   dst+0(FP), DI
	MOVQ   ld+8(FP), R10
	SHLQ   $2, R10               // dst row stride in bytes
	MOVQ   src+16(FP), SI
	MOVQ   featDim+24(FP), R9
	MOVQ   R9, R11
	ANDQ   $7, R9                // ragged columns
	ANDQ   $-8, R11
	SHLQ   $2, R11               // bytes of the whole blocks
	LEAQ   tailMask<>(SB), AX
	MOVQ   $8, BX
	SUBQ   R9, BX
	VMOVDQU (AX)(BX*4), Y15
	MOVQ   featDim+24(FP), R9
	SHLQ   $2, R9                // src row stride in bytes
	MOVQ   idx+32(FP), DX
	MOVQ   w+40(FP), R8
	MOVQ   targets+48(FP), CX
	VXORPS Y14, Y14, Y14

target:
	VBROADCASTSS 0(R8), Y0
	VBROADCASTSS 4(R8), Y1
	VBROADCASTSS 8(R8), Y2
	MOVLQSX      0(DX), AX
	IMULQ        R9, AX
	ADDQ         SI, AX
	MOVLQSX      4(DX), BX
	IMULQ        R9, BX
	ADDQ         SI, BX
	MOVLQSX      8(DX), R13
	IMULQ        R9, R13
	ADDQ         SI, R13
	XORQ         R12, R12

	PCALIGN $32
block:
	CMPQ    R12, R11
	JGE     tail
	VMULPS  (AX)(R12*1), Y0, Y3
	VADDPS  Y3, Y14, Y4
	VMULPS  (BX)(R12*1), Y1, Y3
	VADDPS  Y3, Y4, Y4
	VMULPS  (R13)(R12*1), Y2, Y3
	VADDPS  Y3, Y4, Y4
	VMOVUPS Y4, (DI)(R12*1)
	ADDQ    $32, R12
	JMP     block

tail:
	CMPQ       R11, R9
	JEQ        next
	VMASKMOVPS (AX)(R12*1), Y15, Y5
	VMULPS     Y5, Y0, Y3
	VADDPS     Y3, Y14, Y4
	VMASKMOVPS (BX)(R12*1), Y15, Y5
	VMULPS     Y5, Y1, Y3
	VADDPS     Y3, Y4, Y4
	VMASKMOVPS (R13)(R12*1), Y15, Y5
	VMULPS     Y5, Y2, Y3
	VADDPS     Y3, Y4, Y4
	VMASKMOVPS Y4, Y15, (DI)(R12*1)

next:
	ADDQ $12, DX
	ADDQ $12, R8
	ADDQ R10, DI
	DECQ CX
	JNZ  target

	VZEROUPPER
	RET
