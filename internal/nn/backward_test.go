package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// edgeValues are what a vector lane could treat differently from the scalar
// unit: NaN, ±Inf, ±0, denormals and a product that underflows to one.
var edgeValues = []float32{nan32, inf32, -inf32, negZero32, 0, 1e-40, -1e-40, math.SmallestNonzeroFloat32, 1e-25}

// edgeGrad is a random rows×cols matrix salted with edgeValues when poisoned,
// with exact zeros and −0 otherwise.
func edgeGrad(rng *rand.Rand, rows, cols int, poisoned bool) *tensor.Matrix {
	m := randInput(rng, rows, cols)
	salt := []float32{0, negZero32, 1e-40}
	if poisoned {
		salt = edgeValues
	}
	for i := rng.Intn(5); i < len(m.Data); i += 1 + rng.Intn(13) {
		m.Data[i] = salt[rng.Intn(len(salt))]
	}
	return m
}

// edgeBatchNorm is a BatchNorm whose columns cycle through the cases of the
// backward mask and scale: an ordinary column; γ = 0 with β = 0, whose output
// is exactly ±0, the edge of "> 0"; γ = 0 with β = −0 and with β = −1; γ = ±Inf;
// a NaN β; and a denormal γ.
func edgeBatchNorm(rng *rand.Rand, c int) *BatchNorm {
	bn := NewBatchNorm("edge.bn", c)
	g, b := bn.Gamma.Value.Data, bn.Beta.Value.Data
	for j := range g {
		g[j], b[j] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
		switch j % 8 {
		case 1:
			g[j], b[j] = 0, 0
		case 2:
			g[j], b[j] = 0, negZero32
		case 3:
			g[j], b[j] = 0, -1
		case 4:
			g[j] = inf32
		case 5:
			g[j] = -inf32
		case 6:
			b[j] = nan32
		case 7:
			g[j] = 1e-40
		}
	}
	return bn
}

// edgeActivation is a BatchNorm input: random, with column 0 constant (zero
// variance), column 1 holding its mean exactly in every other row (x̂ = 0),
// and the rest salted as edgeGrad salts.
func edgeActivation(rng *rand.Rand, rows, cols int, poisoned bool) *tensor.Matrix {
	m := edgeGrad(rng, rows, cols, poisoned)
	for r := 0; r < rows; r++ {
		m.Set(r, 0, 0.75)
		if cols > 1 {
			m.Set(r, 1, []float32{2, 1, 2, 3}[r%4])
		}
	}
	return m
}

var (
	backwardWidths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 24, 40, 64}
	backwardRows   = []int{1, 2, 7, 1030, 4100, 8200}
)

// TestVectorBackwardMatchesGoLoops is the bit-identity contract of
// BatchNorm.Backward's AVX2 passes: the same layer, caches and gradient
// through the vector kernels and through the Go loops — the same functions
// with the probe's answer overridden — must give the same input gradient and
// add the same γ and β gradients onto values already there, bit for bit (any
// NaN equal to any NaN). Widths cover every strip remainder, row counts the
// 4096-row call bound of the first pass and, at 8200 rows of 64 columns and
// four cores, both passes' fan-out (two workers: 4100 rows of 64 columns is
// one sweep grain, not two); the ReLU folded in and not; the inputs carry NaN,
// ±Inf, ±0 and denormals, γ = 0, a zero-variance column and outputs exactly
// at zero.
func TestVectorBackwardMatchesGoLoops(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this host: BatchNorm runs the Go loops the vector passes are compared with")
	}
	defer func() { useAVX2 = true }()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(45))
	for _, c := range backwardWidths {
		for _, rows := range backwardRows {
			for _, relu := range []bool{true, false} {
				poisoned := (c+rows)%2 == 1
				bn := edgeBatchNorm(rng, c)
				x := edgeActivation(rng, rows, c, poisoned)
				bn.forwardBatch(tensor.New(rows, c), x, true, relu)
				g := edgeGrad(rng, rows, c, poisoned)
				before := edgeGrad(rng, 2, c, false)
				step := func(avx bool) (dx, dGamma, dBeta *tensor.Matrix) {
					useAVX2 = avx
					copy(bn.Gamma.Grad.Data, before.Row(0))
					copy(bn.Beta.Grad.Data, before.Row(1))
					dx, err := bn.Backward(g)
					if err != nil {
						t.Fatal(err)
					}
					return dx, bn.Gamma.Grad.Clone(), bn.Beta.Grad.Clone()
				}
				runtime.GOMAXPROCS(1)
				wantDX, wantGamma, wantBeta := step(false)
				for _, procs := range []int{1, 4} {
					runtime.GOMAXPROCS(procs)
					what := fmt.Sprintf("GOMAXPROCS %d, %d×%d, relu %v", procs, rows, c, relu)
					dx, dGamma, dBeta := step(true)
					requireSameBits(t, what+", input gradient", dx, wantDX)
					requireSameBits(t, what+", γ gradient", dGamma, wantGamma)
					requireSameBits(t, what+", β gradient", dBeta, wantBeta)
				}
			}
		}
	}
}

// TestVectorLinearGradientsMatchReference is the same contract for
// Linear.Backward's own loops — the bias gradient on the column-sum kernel,
// dW's add onto W's gradient on the vector add — and for dW staying a sum of
// its own: two backward calls onto gradients that already hold values must
// match the scalar reference (dW summed from +0, then added) and the Go
// loops, bit for bit, at every strip remainder.
func TestVectorLinearGradientsMatchReference(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this host: Linear runs the Go loops the vector adds are compared with")
	}
	defer func() { useAVX2 = true }()
	rng := rand.New(rand.NewSource(46))
	for _, c := range backwardWidths {
		for _, rows := range backwardRows[:4] {
			for _, in := range []int{3, 9} {
				poisoned := (c+rows+in)%3 == 0
				l := NewLinear("edge", in, c, rng)
				for i := range l.W.Value.Data {
					if rng.Intn(9) == 0 {
						l.W.Value.Data[i] = edgeValues[rng.Intn(len(edgeValues))]
					}
				}
				x := edgeGrad(rng, rows, in, poisoned)
				if _, err := l.Forward(x, true); err != nil {
					t.Fatal(err)
				}
				g1, g2 := edgeGrad(rng, rows, c, poisoned), edgeGrad(rng, rows, c, false)
				beforeW, beforeB := edgeGrad(rng, in, c, false), edgeGrad(rng, 1, c, false)
				ref := &Linear{W: &Param{Value: l.W.Value, Grad: beforeW.Clone()}, B: &Param{Grad: beforeB.Clone()}}
				wantDX1, wantDX2 := refLinearBackward(ref, x, g1), refLinearBackward(ref, x, g2)
				for _, avx := range []bool{false, true} {
					useAVX2 = avx
					what := fmt.Sprintf("AVX2 %v, %d×%d·%d×%d", avx, rows, in, in, c)
					copy(l.W.Grad.Data, beforeW.Data)
					copy(l.B.Grad.Data, beforeB.Data)
					dx1, err := l.Backward(g1)
					if err != nil {
						t.Fatal(err)
					}
					dx2, err := l.Backward(g2)
					if err != nil {
						t.Fatal(err)
					}
					requireSameBits(t, what+", first input gradient", dx1, wantDX1)
					requireSameBits(t, what+", second input gradient", dx2, wantDX2)
					requireSameBits(t, what+", W gradient", l.W.Grad, ref.W.Grad)
					requireSameBits(t, what+", b gradient", l.B.Grad, ref.B.Grad)
				}
			}
		}
	}
}
