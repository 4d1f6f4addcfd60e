#include "textflag.h"

// AVX2 kernels of BucketFPS's refresh (see refreshAVX2 in bucketfps.go): one
// lane per point (or per pick), every operation the one the Go loop rounds —
// (dx·dx + dy·dy) + dz·dz with each product and sum rounded on its own — and
// no fused multiply-add anywhere.

// func fpsReplay(x, y, z *float64, pos *int, n int, box *geom.AABB, cm float64) uint64
//
// For the picks [0, n), 4 ≤ n ≤ 64, pick k the point at position pos[k] of
// the columns x, y, z (gathered four at a time), and a finite box: bit k of
// the result is set when the squared distance from pick k to box, (dx² + dy²) + dz² with d = max(min − p, p − max, 0)
// per axis, is not ≥ cm (VCMPPD NGE_UQ: a NaN sets the bit, as the Go `>=`
// replays it). VMAXPD returns its second operand when either is a NaN, so
// the clamp to 0 takes the NaN a NaN pick makes, as the builtin max does;
// with a finite box min − p and p − max are NaN together or not at all. When n is
// not a multiple of 4 the last block is picks [n−4, n), overlapping the one
// before: setting a bit twice sets it once.
TEXT ·fpsReplay(SB), NOSPLIT, $0-64
	MOVQ         x+0(FP), SI
	MOVQ         y+8(FP), DI
	MOVQ         z+16(FP), DX
	MOVQ         pos+24(FP), R11
	MOVQ         n+32(FP), R10
	MOVQ         box+40(FP), BX
	VBROADCASTSD cm+48(FP), Y15
	VBROADCASTSD 0(BX), Y8      // box.Min
	VBROADCASTSD 8(BX), Y9
	VBROADCASTSD 16(BX), Y10
	VBROADCASTSD 24(BX), Y11    // box.Max
	VBROADCASTSD 32(BX), Y12
	VBROADCASTSD 40(BX), Y13
	VXORPD       Y14, Y14, Y14
	XORQ         AX, AX         // the mask
	XORQ         CX, CX         // the pick, and the mask's shift

	LEAQ         -4(R10), R8    // where the last block starts

replay:
	CMPQ      CX, R10
	JGE       replayed
	CMPQ      CX, R8
	CMOVQGT   R8, CX
	VMOVDQU   (R11)(CX*8), Y7
	VPCMPEQQ  Y1, Y1, Y1
	VGATHERQPD Y1, (SI)(Y7*8), Y0
	VPCMPEQQ  Y3, Y3, Y3
	VGATHERQPD Y3, (DI)(Y7*8), Y2
	VPCMPEQQ  Y5, Y5, Y5
	VGATHERQPD Y5, (DX)(Y7*8), Y4
	VSUBPD    Y0, Y8, Y1        // min − p
	VSUBPD    Y11, Y0, Y0       // p − max
	VMAXPD    Y0, Y1, Y1
	VMAXPD    Y1, Y14, Y1       // max(0, ·) keeps a NaN
	VSUBPD    Y2, Y9, Y3
	VSUBPD    Y12, Y2, Y2
	VMAXPD    Y2, Y3, Y3
	VMAXPD    Y3, Y14, Y3
	VSUBPD    Y4, Y10, Y5
	VSUBPD    Y13, Y4, Y4
	VMAXPD    Y4, Y5, Y5
	VMAXPD    Y5, Y14, Y5
	VMULPD    Y1, Y1, Y1
	VMULPD    Y3, Y3, Y3
	VMULPD    Y5, Y5, Y5
	VADDPD    Y3, Y1, Y1
	VADDPD    Y5, Y1, Y1
	VCMPPD    $0x19, Y15, Y1, Y1 // NGE_UQ
	VMOVMSKPD Y1, R9
	SHLQ      CX, R9
	ORQ       R9, AX
	ADDQ      $4, CX
	JMP       replay

replayed:
	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET

// func fpsUpdate(dist, x, y, z *float64, n int, px, py, pz float64) float64
//
// For the points [0, n), n ≥ 4, with coordinates in the columns x, y, z:
// d = (dx² + dy²) + dz² with dx = x − px …, and dist = VMINPD(d, dist),
// which returns its second operand unless d < dist — the Go loop's
// `if d < dist[i] { dist[i] = d }`, NaN and signed zeros included. When n is
// not a multiple of 4 the last block is points [n−4, n), overlapping the one
// before: the update is idempotent. Returns the largest dist left, exact
// only when no dist is a NaN.
TEXT ·fpsUpdate(SB), NOSPLIT, $0-72
	MOVQ         dist+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), BX
	MOVQ         z+24(FP), DX
	MOVQ         n+32(FP), CX
	VBROADCASTSD px+40(FP), Y12
	VBROADCASTSD py+48(FP), Y13
	VBROADCASTSD pz+56(FP), Y14
	MOVQ         $0xfff0000000000000, AX
	VMOVQ        AX, X15
	VBROADCASTSD X15, Y15        // running maxima, two chains
	VMOVAPD      Y15, Y11
	XORQ         AX, AX
	LEAQ         -8(CX), R8      // where the last pair of whole blocks starts
	LEAQ         -4(CX), R9      // where the last block starts

update8:
	CMPQ    AX, R8
	JGT     update4
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (BX)(AX*8), Y1
	VMOVUPD (DX)(AX*8), Y2
	VMOVUPD 32(SI)(AX*8), Y4
	VMOVUPD 32(BX)(AX*8), Y5
	VMOVUPD 32(DX)(AX*8), Y6
	VSUBPD  Y12, Y0, Y0
	VSUBPD  Y13, Y1, Y1
	VSUBPD  Y14, Y2, Y2
	VSUBPD  Y12, Y4, Y4
	VSUBPD  Y13, Y5, Y5
	VSUBPD  Y14, Y6, Y6
	VMULPD  Y0, Y0, Y0
	VMULPD  Y1, Y1, Y1
	VMULPD  Y2, Y2, Y2
	VMULPD  Y4, Y4, Y4
	VMULPD  Y5, Y5, Y5
	VMULPD  Y6, Y6, Y6
	VADDPD  Y1, Y0, Y0
	VADDPD  Y5, Y4, Y4
	VADDPD  Y2, Y0, Y0
	VADDPD  Y6, Y4, Y4
	VMINPD  (DI)(AX*8), Y0, Y0
	VMINPD  32(DI)(AX*8), Y4, Y4
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y4, 32(DI)(AX*8)
	VMAXPD  Y0, Y15, Y15
	VMAXPD  Y4, Y11, Y11
	ADDQ    $8, AX
	JMP     update8

update4:
	CMPQ    AX, CX
	JGE     updated
	CMPQ    AX, R9
	CMOVQGT R9, AX
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (BX)(AX*8), Y1
	VMOVUPD (DX)(AX*8), Y2
	VSUBPD  Y12, Y0, Y0
	VSUBPD  Y13, Y1, Y1
	VSUBPD  Y14, Y2, Y2
	VMULPD  Y0, Y0, Y0
	VMULPD  Y1, Y1, Y1
	VMULPD  Y2, Y2, Y2
	VADDPD  Y1, Y0, Y0
	VADDPD  Y2, Y0, Y0
	VMINPD  (DI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	VMAXPD  Y0, Y15, Y15
	ADDQ    $4, AX
	JMP     update4

updated:
	VMAXPD       Y11, Y15, Y15
	VEXTRACTF128 $1, Y15, X0
	VMAXPD       X0, X15, X0
	VPERMILPD    $1, X0, X1
	VMAXPD       X1, X0, X0
	VMOVSD       X0, ret+64(FP)
	VZEROUPPER
	RET

// func fpsFindEq(dist *float64, n int, m float64) int
//
// The first i in [0, n), n ≥ 4, with dist[i] == m (VCMPPD EQ_OQ), or n when
// there is none. A ragged last block overlaps the one before, whose lanes
// held no match.
TEXT ·fpsFindEq(SB), NOSPLIT, $0-32
	MOVQ         dist+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSD m+16(FP), Y15
	XORQ         AX, AX
	LEAQ         -4(CX), R9

find:
	CMPQ      AX, CX
	JGE       found
	CMPQ      AX, R9
	CMOVQGT   R9, AX
	VCMPPD    $0x00, (DI)(AX*8), Y15, Y0
	VMOVMSKPD Y0, DX
	TESTQ     DX, DX
	JNZ       lane
	ADDQ      $4, AX
	JMP       find

lane:
	BSFQ DX, DX
	ADDQ DX, AX

found:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET
