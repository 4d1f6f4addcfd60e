#include "textflag.h"

// The selection kernels: the 3-NN join's best three (best3AVX2, see best3Go
// in join.go) and the exact nearest-k (nearestKAVX2, see nearestKGo in
// nearestk.go). Distances are ((q.x − x)² + (q.y − y)²) + (q.z − z)² with
// every operation rounded on its own, as geom.Point3.DistSq does, and no
// fused multiply-add; the selections compare values only. Every instruction
// is a VEX one: a legacy-SSE instruction after a 256-bit write costs a
// state transition each.

// tailMask<>+8·(4−r) is the mask of a last block of r < 4 candidates: r
// lanes of ones, then zeros.
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

// onehot<>+32·l is lane l of ones, the others zeros: the skipped position's
// lane in its block.
DATA onehot<>+0(SB)/8, $-1
DATA onehot<>+8(SB)/8, $0
DATA onehot<>+16(SB)/8, $0
DATA onehot<>+24(SB)/8, $0
DATA onehot<>+32(SB)/8, $0
DATA onehot<>+40(SB)/8, $-1
DATA onehot<>+48(SB)/8, $0
DATA onehot<>+56(SB)/8, $0
DATA onehot<>+64(SB)/8, $0
DATA onehot<>+72(SB)/8, $0
DATA onehot<>+80(SB)/8, $-1
DATA onehot<>+88(SB)/8, $0
DATA onehot<>+96(SB)/8, $0
DATA onehot<>+104(SB)/8, $0
DATA onehot<>+112(SB)/8, $0
DATA onehot<>+120(SB)/8, $-1
GLOBL onehot<>(SB), RODATA|NOPTR, $128

// four<> is the step between blocks' first positions, as int32s.
DATA four<>+0(SB)/8, $0x0000000400000004
DATA four<>+8(SB)/8, $0x0000000400000004
GLOBL four<>(SB), RODATA|NOPTR, $16

// DIST4 leaves in Y11 the distances of the four points at DI — three loads
// of the points as stored, transposed in registers (Y7…Y10 and Y12 are
// scratch) — ORs their NaN lanes into Y14 and steps DI to the next block.
#define DIST4 \
	VMOVUPD    0(DI), Y7;          \
	VMOVUPD    32(DI), Y8;         \
	VMOVUPD    64(DI), Y9;         \
	VBLENDPD   $0xc, Y8, Y7, Y10;  \
	VPERM2F128 $0x21, Y9, Y7, Y11; \
	VBLENDPD   $0xc, Y9, Y8, Y12;  \
	VSHUFPD    $0xa, Y11, Y10, Y7; \
	VSHUFPD    $0x5, Y12, Y10, Y8; \
	VSHUFPD    $0xa, Y12, Y11, Y9; \
	VSUBPD     Y7, Y0, Y7;         \
	VMULPD     Y7, Y7, Y7;         \
	VSUBPD     Y8, Y1, Y8;         \
	VMULPD     Y8, Y8, Y8;         \
	VADDPD     Y8, Y7, Y7;         \
	VSUBPD     Y9, Y2, Y9;         \
	VMULPD     Y9, Y9, Y9;         \
	VADDPD     Y9, Y7, Y11;        \
	VCMPPD     $3, Y11, Y11, Y7;   \
	VORPD      Y7, Y14, Y14;       \
	ADDQ       $96, DI

// The bound keeps, in every lane, the lane's m smallest distances
// ascending in Y3, Y4, …: the block v (in Y11) is inserted slot by slot,
// the larger of v and a slot moving on to the next, alternating between Y11
// and Y12. The last slot only keeps the smaller.
#define INSA(r) VMAXPD Y11, r, Y12; VMINPD Y11, r, r
#define INSB(r) VMAXPD Y12, r, Y11; VMINPD Y12, r, r
#define LASTA(r) VMINPD Y11, r, r
#define LASTB(r) VMINPD Y12, r, r

// func nearestKAVX2(q, pts *geom.Point3, n, k, skip int, dist *float64, hit *int32, idx *int, d *float64) (ok bool)
//
// n ≥ 1 points, 1 ≤ k ≤ 16. Writes idx[0:k] and d[0:k] as nearestKGo does
// and reports true, or reports false and leaves them to the Go loop: on a
// NaN distance, on fewer than k candidates, or when the candidates it ranks
// are more than 64. dist and hit are scratch of n rounded up to a multiple
// of 4.
//
// Pass one writes dist, four points a block from three loads of the points
// as stored, transposed in registers; a ragged last block runs first, one
// point at a time, dist[n:] is +Inf, and so is the skipped position's. As it
// goes, each lane keeps its m = ⌈k/4⌉ smallest distances, so the largest of
// the four lanes' m-th, T, has at least 4m ≥ k distances at or below it: T
// is at or above the k-th smallest. Pass two left-packs the positions of the
// candidates at or below T into hit (sixteen bytes a block), ascending, the
// skipped position left out. Those few are then ranked: their distances are
// gathered to the front of dist, and each one's rank is the number of
// candidates below it in (distance, position) order — a smaller distance, or
// an equal one earlier in hit — counted four against four in all four
// rotations. The ranks are 0 … c−1, ties included; rank r goes to slot r
// when it is below k.
TEXT ·nearestKAVX2(SB), NOSPLIT, $72-73
	MOVB         $0, ok+72(FP)
	MOVQ         k+24(FP), R8
	CMPQ         R8, $16
	JGT          refuse
	MOVQ         q+0(FP), AX
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	MOVQ         pts+8(FP), DI
	MOVQ         n+16(FP), CX
	MOVQ         skip+32(FP), R9
	MOVQ         dist+40(FP), R11
	MOVQ         hit+48(FP), R12
	MOVQ         CX, BX
	ANDQ         $-4, BX             // points in whole blocks
	MOVQ         CX, R13
	ANDQ         $3, R13             // ragged points
	LEAQ         3(CX), R10
	ANDQ         $-4, R10            // n rounded up to a block
	MOVQ         $0x7ff0000000000000, AX
	VMOVQ        AX, X15
	VBROADCASTSD X15, Y15            // +Inf
	VXORPD       Y14, Y14, Y14       // lanes that met a NaN

	// The ragged block first, one point at a time, then its padding.
	MOVQ BX, DX
	LEAQ (BX)(BX*2), SI
	LEAQ (DI)(SI*8), SI

tail:
	CMPQ   DX, CX
	JGE    pad
	VMOVSD 0(SI), X6
	VSUBSD X6, X0, X6
	VMULSD X6, X6, X6
	VMOVSD 8(SI), X7
	VSUBSD X7, X1, X7
	VMULSD X7, X7, X7
	VADDSD X7, X6, X6
	VMOVSD 16(SI), X8
	VSUBSD X8, X2, X8
	VMULSD X8, X8, X8
	VADDSD X8, X6, X6
	VMOVSD X6, (R11)(DX*8)
	ADDQ   $24, SI
	INCQ   DX
	JMP    tail

pad:
	CMPQ   DX, R10
	JGE    padded
	VMOVSD X15, (R11)(DX*8)
	INCQ   DX
	JMP    pad

padded:
	TESTQ   R13, R13
	JZ      skip
	VMOVUPD (R11)(BX*8), Y6
	VCMPPD  $3, Y6, Y6, Y7           // UNORD_Q
	VORPD   Y7, Y14, Y14

skip:
	// R9 becomes the first position of the block holding the skipped
	// position, with its lane in Y13, or −1; a skipped position in the
	// ragged block is set here.
	CMPQ    R9, CX
	JAE     noskip                   // unsigned: −1 too
	MOVQ    R9, AX
	ANDQ    $3, AX
	SHLQ    $5, AX
	LEAQ    onehot<>(SB), SI
	VMOVUPD (SI)(AX*1), Y13
	CMPQ    R9, BX
	JLT     skipblock
	VMOVSD  X15, (R11)(R9*8)

skipblock:
	ANDQ $-4, R9
	JMP  bounds

noskip:
	MOVQ $-1, R9

bounds:
	XORQ    DX, DX
	VMOVAPD Y15, Y3
	VMOVAPD Y15, Y4
	VMOVAPD Y15, Y5
	VMOVAPD Y15, Y6
	LEAQ    3(R8), AX
	SHRQ    $2, AX                   // m
	CMPQ    AX, $2
	JLT     f1loop
	JEQ     f2loop
	CMPQ    AX, $4
	JLT     f3loop
	JMP     f4loop

	PCALIGN $32
f1loop:
	CMPQ      DX, BX
	JGE       f1last
	DIST4
	CMPQ      DX, R9
	JNE       f1store
	VBLENDVPD Y13, Y15, Y11, Y11     // the skipped position: +Inf
f1store:
	VMOVUPD   Y11, (R11)(DX*8)
f1net:
	LASTA(Y3)
	ADDQ      $4, DX
	JMP       f1loop

f1last:
	CMPQ    DX, R10
	JGE     f1done
	VMOVUPD (R11)(DX*8), Y11         // the ragged block, written before
	JMP     f1net

f1done:
	VMOVAPD Y3, Y12
	JMP     bound

	PCALIGN $32
f2loop:
	CMPQ      DX, BX
	JGE       f2last
	DIST4
	CMPQ      DX, R9
	JNE       f2store
	VBLENDVPD Y13, Y15, Y11, Y11     // the skipped position: +Inf
f2store:
	VMOVUPD   Y11, (R11)(DX*8)
f2net:
	INSA(Y3); LASTB(Y4)
	ADDQ      $4, DX
	JMP       f2loop

f2last:
	CMPQ    DX, R10
	JGE     f2done
	VMOVUPD (R11)(DX*8), Y11         // the ragged block, written before
	JMP     f2net

f2done:
	VMOVAPD Y4, Y12
	JMP     bound

	PCALIGN $32
f3loop:
	CMPQ      DX, BX
	JGE       f3last
	DIST4
	CMPQ      DX, R9
	JNE       f3store
	VBLENDVPD Y13, Y15, Y11, Y11     // the skipped position: +Inf
f3store:
	VMOVUPD   Y11, (R11)(DX*8)
f3net:
	INSA(Y3); INSB(Y4); LASTA(Y5)
	ADDQ      $4, DX
	JMP       f3loop

f3last:
	CMPQ    DX, R10
	JGE     f3done
	VMOVUPD (R11)(DX*8), Y11         // the ragged block, written before
	JMP     f3net

f3done:
	VMOVAPD Y5, Y12
	JMP     bound

	PCALIGN $32
f4loop:
	CMPQ      DX, BX
	JGE       f4last
	DIST4
	CMPQ      DX, R9
	JNE       f4store
	VBLENDVPD Y13, Y15, Y11, Y11     // the skipped position: +Inf
f4store:
	VMOVUPD   Y11, (R11)(DX*8)
f4net:
	INSA(Y3); INSB(Y4); INSA(Y5); LASTB(Y6)
	ADDQ      $4, DX
	JMP       f4loop

f4last:
	CMPQ    DX, R10
	JGE     f4done
	VMOVUPD (R11)(DX*8), Y11         // the ragged block, written before
	JMP     f4net

f4done:
	VMOVAPD Y6, Y12
	JMP     bound

bound:
	VMOVMSKPD  Y14, AX
	TESTQ      AX, AX
	JNZ        refuse
	VPERM2F128 $1, Y12, Y12, Y11
	VMAXPD     Y11, Y12, Y12
	VPERMILPD  $5, Y12, Y11
	VMAXPD     Y11, Y12, Y14         // T, in every lane

	// Pass two: left-pack the positions of the distances ≤ T.
	LEAQ    pack<>(SB), SI
	VPXOR   X12, X12, X12            // this block's first position, in every lane
	VMOVDQU four<>(SB), X13
	XORQ    DX, DX
	XORQ    AX, AX                   // candidates so far

	PCALIGN $32
collect:
	CMPQ      DX, BX
	JGE       collecttail
	VMOVUPD   (R11)(DX*8), Y6
	VCMPPD    $2, Y14, Y6, Y6        // LE_OS
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
	TESTQ     R13, R13
	JZ        collected
	LEAQ      tailMask<>(SB), CX
	MOVQ      $4, DI
	SUBQ      R13, DI
	VMOVDQU   (CX)(DI*8), Y9
	VMOVUPD   (R11)(DX*8), Y6
	VCMPPD    $2, Y14, Y6, Y6
	VANDPD    Y9, Y6, Y6             // no position past n
	VMOVMSKPD Y6, CX
	MOVQ      CX, DI
	SHLQ      $4, DI
	VPADDD    (SI)(DI*1), X12, X8
	VMOVDQU   X8, (R12)(AX*4)
	POPCNTL   CX, CX
	ADDQ      CX, AX

collected:
	// The skipped position is +Inf: a candidate only when T is +Inf.
	MOVQ     skip+32(FP), DX
	CMPQ     DX, n+16(FP)
	JAE      counted
	VUCOMISD X15, X14
	JNE      counted
	XORQ     SI, SI

findskip:
	CMPQ    SI, AX
	JGE     counted
	MOVLQSX (R12)(SI*4), DI
	CMPQ    DI, DX
	JEQ     dropskip
	INCQ    SI
	JMP     findskip

dropskip:
	DECQ AX

shiftdown:
	CMPQ SI, AX
	JGE  counted
	MOVL 4(R12)(SI*4), DI
	MOVL DI, (R12)(SI*4)
	INCQ SI
	JMP  shiftdown

counted:
	CMPQ AX, R8
	JLT  refuse                      // fewer than k candidates
	CMPQ AX, $64
	JGT  refuse
	MOVQ AX, 48(SP)                  // c
	LEAQ 32(SP), SI
	MOVQ SI, 56(SP)                  // where a rank of k or more writes its index
	LEAQ 40(SP), SI
	MOVQ SI, 64(SP)                  // and its distance

	// The candidates' distances to the front of dist (positions only grow,
	// so nothing is read after it is overwritten), +Inf up to a block.
	XORQ DX, DX

gather:
	CMPQ    DX, AX
	JGE     gathered
	MOVLQSX (R12)(DX*4), SI
	VMOVSD  (R11)(SI*8), X3
	VMOVSD  X3, (R11)(DX*8)
	INCQ    DX
	JMP     gather

gathered:
	LEAQ 3(AX), R10
	ANDQ $-4, R10                    // c rounded up to a block

gatherpad:
	CMPQ   DX, R10
	JGE    rank
	VMOVSD X15, (R11)(DX*8)
	INCQ   DX
	JMP    gatherpad

rank:
	MOVQ    idx+56(FP), R9
	LEAQ    tailMask<>(SB), SI
	VMOVUPD 8(SI), Y0                // lanes 0…2: NOT is lane 3
	VMOVUPD 16(SI), Y1               // lanes 0 and 1: NOT is lanes 2 and 3
	VMOVUPD 24(SI), Y2               // lane 0: NOT is lanes 1…3
	XORQ    BX, BX

	PCALIGN $32
ranka:
	CMPQ    BX, R10
	JGE     ranked
	VMOVUPD (R11)(BX*8), Y3          // four candidates
	VPXOR   Y4, Y4, Y4               // their ranks, negated masks summed
	XORQ    DX, DX

rankb:
	CMPQ    DX, R10
	JGE     scatter
	VMOVUPD (R11)(DX*8), Y5          // four others, in all four rotations
	VPERMPD $0x39, Y5, Y6
	VPERMPD $0x4e, Y5, Y7
	VPERMPD $0x93, Y5, Y8
	CMPQ    DX, BX
	JEQ     rankself
	JGT     rankafter
	VCMPPD  $2, Y3, Y5, Y5           // LE_OS: earlier, so a tie is below too
	VCMPPD  $2, Y3, Y6, Y6
	VCMPPD  $2, Y3, Y7, Y7
	VCMPPD  $2, Y3, Y8, Y8
	JMP     ranksum

rankafter:
	VCMPPD $1, Y3, Y5, Y5            // LT_OS: later, so only a smaller one
	VCMPPD $1, Y3, Y6, Y6
	VCMPPD $1, Y3, Y7, Y7
	VCMPPD $1, Y3, Y8, Y8
	JMP    ranksum

rankself:
	// The candidates' own block: in rotation r, lane l meets the candidate
	// of lane l+r mod 4, which is earlier when l ≥ 4−r; rotation 0 meets
	// the lane itself, never below.
	VCMPPD  $1, Y3, Y5, Y5
	VCMPPD  $0, Y3, Y6, Y9           // EQ_OQ
	VANDNPD Y9, Y0, Y9
	VCMPPD  $1, Y3, Y6, Y6
	VORPD   Y9, Y6, Y6
	VCMPPD  $0, Y3, Y7, Y9
	VANDNPD Y9, Y1, Y9
	VCMPPD  $1, Y3, Y7, Y7
	VORPD   Y9, Y7, Y7
	VCMPPD  $0, Y3, Y8, Y9
	VANDNPD Y9, Y2, Y9
	VCMPPD  $1, Y3, Y8, Y8
	VORPD   Y9, Y8, Y8

ranksum:
	VPSUBQ Y5, Y4, Y4
	VPSUBQ Y6, Y4, Y4
	VPSUBQ Y7, Y4, Y4
	VPSUBQ Y8, Y4, Y4
	ADDQ   $4, DX
	JMP    rankb

scatter:
	VMOVDQU Y4, 0(SP)
	XORQ    DX, DX

scatterlane:
	CMPQ    DX, $4
	JGE     nexta
	LEAQ    (BX)(DX*1), AX           // candidate i
	CMPQ    AX, 48(SP)
	JGE     ranked
	MOVQ    0(SP)(DX*8), DI          // its rank: its slot
	MOVLQSX (R12)(AX*4), CX          // its position
	VMOVSD  (R11)(AX*8), X3
	CMPQ    DI, R8
	LEAQ    (R9)(DI*8), AX
	CMOVQGE 56(SP), AX
	MOVQ    CX, (AX)
	MOVQ    d+64(FP), SI
	LEAQ    (SI)(DI*8), SI
	CMOVQGE 64(SP), SI
	VMOVSD  X3, (SI)
	INCQ    DX
	JMP     scatterlane

nexta:
	ADDQ $4, BX
	JMP  ranka

ranked:
	MOVB $1, ok+72(FP)

refuse:
	VZEROUPPER
	RET

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
