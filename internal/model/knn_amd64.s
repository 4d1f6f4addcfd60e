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
