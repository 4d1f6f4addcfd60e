package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// refLinear is x·W + b with the scalar loop: each cell summed from +0 over k
// ascending, then the bias.
func refLinear(l *Linear, x *tensor.Matrix) *tensor.Matrix {
	w := l.W.Value
	y := tensor.New(x.Rows, w.Cols)
	for r := 0; r < x.Rows; r++ {
		for j := 0; j < w.Cols; j++ {
			var s float32
			for k, xv := range x.Row(r) {
				s += xv * w.At(k, j)
			}
			y.Set(r, j, s+l.B.Value.Data[j])
		}
	}
	return y
}

// refLinearBackward adds xᵀ·g to W's gradient and g's column sums to b's,
// and returns g·Wᵀ: every sum from +0 in index order.
func refLinearBackward(l *Linear, x, g *tensor.Matrix) *tensor.Matrix {
	w := l.W.Value
	for i := 0; i < w.Rows; i++ {
		for j := 0; j < w.Cols; j++ {
			var s float32
			for r := 0; r < x.Rows; r++ {
				s += x.At(r, i) * g.At(r, j)
			}
			l.W.Grad.Data[i*w.Cols+j] += s
		}
	}
	for r := 0; r < g.Rows; r++ {
		for j, gv := range g.Row(r) {
			l.B.Grad.Data[j] += gv
		}
	}
	dx := tensor.New(g.Rows, w.Rows)
	for r := 0; r < g.Rows; r++ {
		for i := 0; i < w.Rows; i++ {
			var s float32
			for j, gv := range g.Row(r) {
				s += gv * w.At(i, j)
			}
			dx.Set(r, i, s)
		}
	}
	return dx
}

// refBN is BatchNorm's batch-statistics pass as loops over rows: the mean,
// the variance, x̂ and γ·x̂ + β, updating the running statistics when train
// is set. It returns the output, x̂ and 1/√(variance+ε).
func refBN(bn *BatchNorm, x *tensor.Matrix, train bool) (out, xhat *tensor.Matrix, invStd []float32) {
	c, n := x.Cols, float32(x.Rows)
	mean, variance := make([]float32, c), make([]float32, c)
	for r := 0; r < x.Rows; r++ {
		for j, v := range x.Row(r) {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= n
	}
	for r := 0; r < x.Rows; r++ {
		for j, v := range x.Row(r) {
			d := v - mean[j]
			variance[j] += d * d
		}
	}
	invStd = make([]float32, c)
	for j := range variance {
		variance[j] /= n
		invStd[j] = 1 / float32(math.Sqrt(float64(variance[j]+bn.Eps)))
	}
	out, xhat = tensor.New(x.Rows, c), tensor.New(x.Rows, c)
	for r := 0; r < x.Rows; r++ {
		for j, v := range x.Row(r) {
			h := (v - mean[j]) * invStd[j]
			xhat.Set(r, j, h)
			out.Set(r, j, bn.Gamma.Value.Data[j]*h+bn.Beta.Value.Data[j])
		}
	}
	if train {
		for j := 0; j < c; j++ {
			bn.RunningMean[j] = (1-bn.Momentum)*bn.RunningMean[j] + bn.Momentum*mean[j]
			bn.RunningVar[j] = (1-bn.Momentum)*bn.RunningVar[j] + bn.Momentum*variance[j]
		}
	}
	return out, xhat, invStd
}

// refBNBackward adds the γ and β gradients and returns dx.
func refBNBackward(bn *BatchNorm, g, xhat *tensor.Matrix, invStd []float32) *tensor.Matrix {
	c, n := g.Cols, float32(g.Rows)
	sumG, sumGH := make([]float32, c), make([]float32, c)
	for r := 0; r < g.Rows; r++ {
		for j, gv := range g.Row(r) {
			sumG[j] += gv
			sumGH[j] += gv * xhat.At(r, j)
		}
	}
	for j := 0; j < c; j++ {
		bn.Beta.Grad.Data[j] += sumG[j]
		bn.Gamma.Grad.Data[j] += sumGH[j]
	}
	out := tensor.New(g.Rows, c)
	for r := 0; r < g.Rows; r++ {
		for j, gv := range g.Row(r) {
			out.Set(r, j, bn.Gamma.Value.Data[j]*invStd[j]/n*(n*gv-sumG[j]-xhat.At(r, j)*sumGH[j]))
		}
	}
	return out
}

// refTrainStep is a train-mode forward and backward of a chain of Linear,
// BatchNorm and ReLU layers, each by its scalar loops, one layer at a time.
func refTrainStep(layers []Layer, x, grad *tensor.Matrix) (out, dx *tensor.Matrix) {
	type saved struct {
		in, xhat *tensor.Matrix
		invStd   []float32
	}
	cache := make([]saved, len(layers))
	cur := x
	for i, l := range layers {
		cache[i].in = cur
		switch l := l.(type) {
		case *Linear:
			cur = refLinear(l, cur)
		case *BatchNorm:
			cur, cache[i].xhat, cache[i].invStd = refBN(l, cur, true)
		case *ReLU:
			y := cur.Clone()
			for j, v := range y.Data {
				if v <= 0 {
					y.Data[j] = 0
				}
			}
			cur = y
		}
	}
	out, g := cur, grad
	for i := len(layers) - 1; i >= 0; i-- {
		switch l := layers[i].(type) {
		case *Linear:
			g = refLinearBackward(l, cache[i].in, g)
		case *BatchNorm:
			g = refBNBackward(l, g, cache[i].xhat, cache[i].invStd)
		case *ReLU:
			masked := g.Clone()
			for j, v := range cache[i].in.Data {
				if !(v > 0) {
					masked.Data[j] = 0
				}
			}
			g = masked
		}
	}
	return out, g
}

// TestTrainFoldMatchesLayerByLayer is the bit-identity contract of a training
// step through a shared MLP: Sequential's train pass — the GEMM on blocked's
// kernels, BatchNorm's statistics and apply sweeps with the ReLU folded in,
// x̂ recomputed in Backward, the ReLU mask read off the output, both backward
// products on their vector kernels — against the scalar layer-by-layer chain:
// output, input gradient, every parameter gradient and the running
// statistics, at several core counts, over row counts around the fan-out
// thresholds and widths around the vector strips, with NaN and ±Inf
// arriving through the weights and the input.
func TestTrainFoldMatchesLayerByLayer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rowCounts := []int{1, 2, 5, 256, 2049, 8192}
	widths := []int{1, 4, 7, 8, 9, 16, 17, 35}
	if testing.Short() {
		rowCounts = []int{1, 5, 2049}
	}
	const in = 6
	for _, rows := range rowCounts {
		for ci, c := range widths {
			seed := int64(rows*1000 + c)
			build := func() []Layer {
				rng := rand.New(rand.NewSource(seed))
				return append(oddTriple(rng, "a", in, c), oddTriple(rng, "b", c, c)...)
			}
			rng := rand.New(rand.NewSource(-seed))
			x := oddInput(rng, rows, in, ci%3 == 2)
			grad := randInput(rng, rows, c)
			ref := build()
			wantOut, wantDX := refTrainStep(ref, x, grad)
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				what := fmt.Sprintf("GOMAXPROCS %d, %d rows × %d", procs, rows, c)
				layers := build()
				mlp := NewSequential(layers...)
				out, err := mlp.Forward(x, true)
				if err != nil {
					t.Fatal(err)
				}
				requireSameBits(t, what+", output", out, wantOut)
				dx, err := mlp.Backward(grad)
				if err != nil {
					t.Fatal(err)
				}
				requireSameBits(t, what+", input gradient", dx, wantDX)
				for i, p := range mlp.Params() {
					requireSameBits(t, what+", "+p.Name+" gradient", p.Grad, CollectParams(ref...)[i].Grad)
				}
				for i, l := range layers {
					if bn, ok := l.(*BatchNorm); ok {
						rb := ref[i].(*BatchNorm)
						for j := range bn.RunningMean {
							if !sameFloatBits(bn.RunningMean[j], rb.RunningMean[j]) || !sameFloatBits(bn.RunningVar[j], rb.RunningVar[j]) {
								t.Fatalf("%s: %s running statistics of column %d differ", what, bn.Gamma.Name, j)
							}
						}
					}
				}
			}
		}
	}
}
