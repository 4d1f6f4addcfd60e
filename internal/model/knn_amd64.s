#include "textflag.h"

// AVX2 kernel of featKNN (see knn_amd64.go): one lane per candidate, the
// channels in index order, every operation the one the Go loop rounds — a
// float32 difference, widened, squared and summed in float64 — and no fused
// multiply-add anywhere.

// func knnScan8(dist *float64, q, ft *float32, n, c, ld int, thr float64, early bool) int
//
// Candidates [0, n), n a multiple of 8, are the columns of the channel-major
// ft (c ≥ 1 rows of stride ld floats); q is the query's c channels. Each lane
// sums (q[t] − ft[t][j])², t ascending, from +0. A block of 8 candidates whose
// sums are all ≥ thr (VCMPPD GE_OQ: false on a NaN, so a NaN survives, as the
// Go `>=` lets it) is dropped; the first block with a survivor leaves its 8
// complete sums in dist[0:8] and returns its offset, and n means none. With
// early set the test also runs every 4 channels on the partial sums: exact
// when every term is a non-negative number, which the caller guarantees by
// setting it only for finite features.
TEXT ·knnScan8(SB), NOSPLIT, $0-72
	MOVQ         dist+0(FP), DI
	MOVQ         q+8(FP), SI
	MOVQ         ft+16(FP), BX
	MOVQ         n+24(FP), R8
	MOVQ         c+32(FP), R11
	MOVQ         ld+40(FP), R9
	SHLQ         $2, R9            // byte stride of ft
	VBROADCASTSD thr+48(FP), Y15
	MOVBQZX      early+56(FP), R12
	XORQ         DX, DX            // offset of the block

block:
	CMPQ   DX, R8
	JGE    none
	VXORPD Y0, Y0, Y0              // lanes 0–3
	VXORPD Y1, Y1, Y1              // lanes 4–7
	LEAQ   (BX)(DX*4), CX          // &ft[0][offset]
	MOVQ   SI, AX
	MOVQ   R11, R10                // channels left

chan:
	VBROADCASTSS (AX), X2
	VSUBPS       (CX), X2, X3      // q[t] − ft[t][j:j+4], rounded to float32
	VSUBPS       16(CX), X2, X5
	VCVTPS2PD    X3, Y4
	VCVTPS2PD    X5, Y5
	VMULPD       Y4, Y4, Y4
	VMULPD       Y5, Y5, Y5
	VADDPD       Y4, Y0, Y0
	VADDPD       Y5, Y1, Y1
	ADDQ         $4, AX
	ADDQ         R9, CX
	DECQ         R10
	JZ           full
	TESTQ        R12, R12
	JZ           chan
	TESTQ        $3, R10
	JNZ          chan
	VCMPPD       $0x1d, Y15, Y0, Y6 // GE_OQ
	VCMPPD       $0x1d, Y15, Y1, Y7
	VANDPD       Y6, Y7, Y6
	VMOVMSKPD    Y6, R13
	CMPQ         R13, $15
	JNE          chan
	ADDQ         $8, DX            // every lane is out already
	JMP          block

full:
	VCMPPD    $0x1d, Y15, Y0, Y6
	VCMPPD    $0x1d, Y15, Y1, Y7
	VANDPD    Y6, Y7, Y6
	VMOVMSKPD Y6, R13
	CMPQ      R13, $15
	JNE       found
	ADDQ      $8, DX
	JMP       block

found:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)

none:
	MOVQ DX, ret+64(FP)
	VZEROUPPER
	RET

// func knnSym8(dist *float64, q, ft *float32, thr *float64, n, c, ld int, qthr float64) (off, mask int)
//
// The symmetric join's scan (knnSymAVX2): knnScan8's lanes and roundings,
// with a bound per lane, max(qthr, thr[j]) (VMAXPD), and the strict test
// of (distance, index) lists: a lane is past its bound when its sum is
// > it (VCMPPD GT_OQ), so a distance equal to the bound still reaches the
// insert, which breaks the tie by index. Whenever the channels left are a
// multiple of 8, a block whose partial sums are all past their bounds is
// dropped — exact, as the caller passes only finite features. (Testing every
// 4 channels, as knnScan8 does, measured a few per cent slower on layer-2
// features: each test is a branch that mispredicts.) The first block with a lane not past its
// bound leaves its 8 complete sums in dist[0:8], and returns its offset and
// those lanes as mask bits; n and 0 mean none.
TEXT ·knnSym8(SB), NOSPLIT, $0-80
	MOVQ         dist+0(FP), DI
	MOVQ         q+8(FP), SI
	MOVQ         ft+16(FP), BX
	MOVQ         thr+24(FP), R12
	MOVQ         n+32(FP), R8
	MOVQ         c+40(FP), R11
	MOVQ         ld+48(FP), R9
	SHLQ         $2, R9            // byte stride of ft
	VBROADCASTSD qthr+56(FP), Y15
	XORQ         DX, DX            // offset of the block

	PCALIGN $32               // a loop across a 32-byte line ran at half speed

sblock:
	CMPQ   DX, R8
	JGE    snone
	VMAXPD (R12)(DX*8), Y15, Y13   // bounds of lanes 0–3
	VMAXPD 32(R12)(DX*8), Y15, Y14 // bounds of lanes 4–7
	VXORPD Y0, Y0, Y0              // lanes 0–3
	VXORPD Y1, Y1, Y1              // lanes 4–7
	LEAQ   (BX)(DX*4), CX          // &ft[0][offset]
	MOVQ   SI, AX
	MOVQ   R11, R10                // channels left

	PCALIGN $32

schan:
	VBROADCASTSS (AX), X2
	VSUBPS       (CX), X2, X3      // q[t] − ft[t][j:j+4], rounded to float32
	VSUBPS       16(CX), X2, X5
	VCVTPS2PD    X3, Y4
	VCVTPS2PD    X5, Y5
	VMULPD       Y4, Y4, Y4
	VMULPD       Y5, Y5, Y5
	VADDPD       Y4, Y0, Y0
	VADDPD       Y5, Y1, Y1
	ADDQ         $4, AX
	ADDQ         R9, CX
	DECQ         R10
	JZ           sfull
	TESTQ        $7, R10
	JNZ          schan
	VCMPPD       $0x1e, Y13, Y0, Y6 // GT_OQ
	VCMPPD       $0x1e, Y14, Y1, Y7
	VANDPD       Y6, Y7, Y6
	VMOVMSKPD    Y6, R13
	CMPQ         R13, $15
	JNE          schan
	ADDQ         $8, DX            // every lane is past its bound already
	JMP          sblock

sfull:
	VCMPPD    $0x1e, Y13, Y0, Y6
	VCMPPD    $0x1e, Y14, Y1, Y7
	VMOVMSKPD Y6, R13
	VMOVMSKPD Y7, AX
	SHLQ      $4, AX
	ORQ       AX, R13
	XORQ      $0xff, R13           // the lanes not past their bounds
	JNZ       sfound
	ADDQ      $8, DX
	JMP       sblock

sfound:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	MOVQ    R13, mask+72(FP)
	MOVQ    DX, off+64(FP)
	VZEROUPPER
	RET

snone:
	MOVQ $0, mask+72(FP)
	MOVQ DX, off+64(FP)
	VZEROUPPER
	RET
