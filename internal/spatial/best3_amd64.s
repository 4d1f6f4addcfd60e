#include "textflag.h"

// The 3-NN join's AVX2 kernel (see best3Go in join.go): four candidates a
// lane block, each distance ((q.x − x)² + (q.y − y)²) + (q.z − z)² with every
// operation rounded on its own, as geom.Point3.DistSq does, and no fused
// multiply-add. Every instruction is a VEX one: a legacy-SSE instruction
// after a 256-bit write costs a state transition each.

// tailMask<>+8·(4−r) is the load and store mask of a last block of r < 4
// candidates: r lanes of ones, then zeros.
DATA tailMask<>+0(SB)/8, $-1
DATA tailMask<>+8(SB)/8, $-1
DATA tailMask<>+16(SB)/8, $-1
DATA tailMask<>+24(SB)/8, $-1
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// pack<>+16·m lists the lanes set in the 4-bit mask m, ascending, as int32s
// (the rest of the entry is zeros): the left-pack of the collect pass.
DATA pack<>+0x00(SB)/8, $0
DATA pack<>+0x08(SB)/8, $0
DATA pack<>+0x10(SB)/8, $0x0000000000000000 // 0001: 0
DATA pack<>+0x18(SB)/8, $0
DATA pack<>+0x20(SB)/8, $0x0000000000000001 // 0010: 1
DATA pack<>+0x28(SB)/8, $0
DATA pack<>+0x30(SB)/8, $0x0000000100000000 // 0011: 0 1
DATA pack<>+0x38(SB)/8, $0
DATA pack<>+0x40(SB)/8, $0x0000000000000002 // 0100: 2
DATA pack<>+0x48(SB)/8, $0
DATA pack<>+0x50(SB)/8, $0x0000000200000000 // 0101: 0 2
DATA pack<>+0x58(SB)/8, $0
DATA pack<>+0x60(SB)/8, $0x0000000200000001 // 0110: 1 2
DATA pack<>+0x68(SB)/8, $0
DATA pack<>+0x70(SB)/8, $0x0000000100000000 // 0111: 0 1 2
DATA pack<>+0x78(SB)/8, $0x0000000000000002
DATA pack<>+0x80(SB)/8, $0x0000000000000003 // 1000: 3
DATA pack<>+0x88(SB)/8, $0
DATA pack<>+0x90(SB)/8, $0x0000000300000000 // 1001: 0 3
DATA pack<>+0x98(SB)/8, $0
DATA pack<>+0xa0(SB)/8, $0x0000000300000001 // 1010: 1 3
DATA pack<>+0xa8(SB)/8, $0
DATA pack<>+0xb0(SB)/8, $0x0000000100000000 // 1011: 0 1 3
DATA pack<>+0xb8(SB)/8, $0x0000000000000003
DATA pack<>+0xc0(SB)/8, $0x0000000300000002 // 1100: 2 3
DATA pack<>+0xc8(SB)/8, $0
DATA pack<>+0xd0(SB)/8, $0x0000000200000000 // 1101: 0 2 3
DATA pack<>+0xd8(SB)/8, $0x0000000000000003
DATA pack<>+0xe0(SB)/8, $0x0000000200000001 // 1110: 1 2 3
DATA pack<>+0xe8(SB)/8, $0x0000000000000003
DATA pack<>+0xf0(SB)/8, $0x0000000100000000 // 1111: 0 1 2 3
DATA pack<>+0xf8(SB)/8, $0x0000000300000002
GLOBL pack<>(SB), RODATA|NOPTR, $256

// four<> is the step between blocks' first positions, as int32s.
DATA four<>+0(SB)/8, $0x0000000400000004
DATA four<>+8(SB)/8, $0x0000000400000004
GLOBL four<>(SB), RODATA|NOPTR, $16

// func best3AVX2(q *geom.Point3, x, y, z *float64, n int, dist *float64, hit *int32) (third float64, hits int)
//
// n ≥ 1 candidates in the columns x, y, z. Pass one writes dist[0:n] and
// keeps each lane's three smallest distances with a min/max network; two
// merges of the lanes' sorted triples leave the third smallest of all n,
// counted with multiplicity, in every lane. Pass two writes the positions
// whose distance is ≤ it to hit, ascending, sixteen bytes a block: hit has
// room for n rounded up to a multiple of 4. The masked loads and stores of a
// ragged last block touch no candidate or distance past n.
TEXT ·best3AVX2(SB), NOSPLIT, $0-72
	MOVQ         q+0(FP), AX
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	MOVQ         x+8(FP), R8
	MOVQ         y+16(FP), R9
	MOVQ         z+24(FP), R10
	MOVQ         n+32(FP), CX
	MOVQ         dist+40(FP), R11
	MOVQ         hit+48(FP), R12
	MOVQ         CX, BX
	ANDQ         $-4, BX             // candidates in whole blocks
	MOVQ         CX, R13
	ANDQ         $3, R13             // ragged candidates
	LEAQ         tailMask<>(SB), AX
	MOVQ         $4, DX
	SUBQ         R13, DX
	VMOVDQU      (AX)(DX*8), Y9
	MOVQ         $0x7ff0000000000000, AX
	VMOVQ        AX, X15
	VBROADCASTSD X15, Y15            // +Inf
	VMOVAPD      Y15, Y3             // each lane's smallest,
	VMOVAPD      Y15, Y4             // second smallest
	VMOVAPD      Y15, Y5             // and third smallest distance
	XORQ         DX, DX

	PCALIGN $32
dist:
	CMPQ    DX, BX
	JGE     disttail
	VMOVUPD (R8)(DX*8), Y6
	VSUBPD  Y6, Y0, Y6
	VMULPD  Y6, Y6, Y6
	VMOVUPD (R9)(DX*8), Y7
	VSUBPD  Y7, Y1, Y7
	VMULPD  Y7, Y7, Y7
	VADDPD  Y7, Y6, Y6
	VMOVUPD (R10)(DX*8), Y7
	VSUBPD  Y7, Y2, Y7
	VMULPD  Y7, Y7, Y7
	VADDPD  Y7, Y6, Y6
	VMOVUPD Y6, (R11)(DX*8)
	VMAXPD  Y6, Y3, Y7
	VMINPD  Y6, Y3, Y3
	VMAXPD  Y7, Y4, Y8
	VMINPD  Y7, Y4, Y4
	VMINPD  Y8, Y5, Y5
	ADDQ    $4, DX
	JMP     dist

disttail:
	TESTQ      R13, R13
	JZ         merge
	VMASKMOVPD (R8)(DX*8), Y9, Y6
	VSUBPD     Y6, Y0, Y6
	VMULPD     Y6, Y6, Y6
	VMASKMOVPD (R9)(DX*8), Y9, Y7
	VSUBPD     Y7, Y1, Y7
	VMULPD     Y7, Y7, Y7
	VADDPD     Y7, Y6, Y6
	VMASKMOVPD (R10)(DX*8), Y9, Y7
	VSUBPD     Y7, Y2, Y7
	VMULPD     Y7, Y7, Y7
	VADDPD     Y7, Y6, Y6
	VBLENDVPD  Y9, Y6, Y15, Y6     // lanes past n: +Inf
	VMASKMOVPD Y6, Y9, (R11)(DX*8)
	VMAXPD     Y6, Y3, Y7
	VMINPD     Y6, Y3, Y3
	VMAXPD     Y7, Y4, Y8
	VMINPD     Y7, Y4, Y4
	VMINPD     Y8, Y5, Y5

merge:
	// Two sorted triples a and b merge into the three smallest of both:
	// min(a1, b1), min(a2, b2, max(a1, b1)) and
	// min(a3, b3, max(a1, b2), max(a2, b1)). First with the other half's
	// lanes, then with the neighbor lane; only the third is needed at the
	// end.
	VPERM2F128 $1, Y3, Y3, Y6
	VPERM2F128 $1, Y4, Y4, Y7
	VPERM2F128 $1, Y5, Y5, Y8
	VMINPD     Y8, Y5, Y5
	VMAXPD     Y7, Y3, Y10
	VMAXPD     Y6, Y4, Y11
	VMINPD     Y11, Y10, Y10
	VMINPD     Y10, Y5, Y5
	VMINPD     Y7, Y4, Y4
	VMAXPD     Y6, Y3, Y10
	VMINPD     Y10, Y4, Y4
	VMINPD     Y6, Y3, Y3
	VPERMILPD  $5, Y3, Y6
	VPERMILPD  $5, Y4, Y7
	VPERMILPD  $5, Y5, Y8
	VMINPD     Y8, Y5, Y5
	VMAXPD     Y7, Y3, Y10
	VMAXPD     Y6, Y4, Y11
	VMINPD     Y11, Y10, Y10
	VMINPD     Y10, Y5, Y5         // the third smallest, in every lane
	VMOVSD     X5, third+56(FP)

	// Pass two: left-pack the positions of the distances ≤ the third.
	LEAQ    pack<>(SB), SI
	VPXOR   X12, X12, X12          // this block's first position, in every lane
	VMOVDQU four<>(SB), X13
	XORQ    DX, DX
	XORQ    AX, AX                 // hits so far

	PCALIGN $32
collect:
	CMPQ      DX, BX
	JGE       collecttail
	VMOVUPD   (R11)(DX*8), Y6
	VCMPPD    $2, Y5, Y6, Y6       // LE_OS
	VMOVMSKPD Y6, CX
	MOVQ      CX, DI
	SHLQ      $4, DI
	VPADDD    (SI)(DI*1), X12, X8
	VMOVDQU   X8, (R12)(AX*4)
	POPCNTL   CX, CX
	ADDQ      CX, AX
	VPADDD    X13, X12, X12
	ADDQ      $4, DX
	JMP       collect

collecttail:
	TESTQ      R13, R13
	JZ         done
	VMASKMOVPD (R11)(DX*8), Y9, Y6
	VCMPPD     $2, Y5, Y6, Y6
	VANDPD     Y9, Y6, Y6          // masked-out lanes load 0
	VMOVMSKPD  Y6, CX
	MOVQ       CX, DI
	SHLQ       $4, DI
	VPADDD     (SI)(DI*1), X12, X8
	VMOVDQU    X8, (R12)(AX*4)
	POPCNTL    CX, CX
	ADDQ       CX, AX

done:
	MOVQ AX, hits+64(FP)
	VZEROUPPER
	RET
