package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// sameFloatBits is float32 bit equality, −0 distinct from +0, with one allowance:
// any NaN equals any NaN (which operand's sign and payload an operation on
// two NaNs keeps is the compiler's choice of operand order, not arithmetic).
func sameFloatBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

func requireSameBits(t *testing.T, what string, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		if g := got.Data[i]; !sameFloatBits(g, w) {
			t.Fatalf("%s: element (%d,%d) is %08x (%g), want %08x (%g)",
				what, i/want.Cols, i%want.Cols, math.Float32bits(g), g, math.Float32bits(w), w)
		}
	}
}

var (
	nan32     = float32(math.NaN())
	inf32     = float32(math.Inf(1))
	negZero32 = float32(math.Copysign(0, -1))
)

// oddTriple builds a Linear → BatchNorm → ReLU triple whose output columns
// cover the epilogue's edge cases, cycling by column: an ordinary channel; a
// constant one (zero weights: variance 0); an all-negative one (γ = 0,
// β = −1) that ReLU flattens; signed zeros (γ = 0, β = −0); γ = ±Inf, which
// gives +Inf and −Inf inside one column; NaN or Inf arriving through β or
// the bias; and a column that copies input column 0 with γ = +Inf, which on
// oddInput's balanced −1/0/+1 pattern is 0·Inf = NaN exactly where the input
// equals the mean — NaN, +Inf and 0 inside one pooled group, NaN leading in
// some groups and trailing in others.
func oddTriple(rng *rand.Rand, name string, in, out int) []Layer {
	lin := NewLinear(name, in, out, rng)
	bn := NewBatchNorm(name+".bn", out)
	w, b := lin.W.Value, lin.B.Value.Data
	g, beta := bn.Gamma.Value.Data, bn.Beta.Value.Data
	for c := 0; c < out; c++ {
		b[c] = float32(rng.NormFloat64())
		g[c] = float32(rng.NormFloat64())
		beta[c] = float32(rng.NormFloat64())
		switch c % 9 {
		case 1:
			for r := 0; r < in; r++ {
				w.Set(r, c, 0)
			}
		case 2:
			g[c], beta[c] = 0, -1
		case 3:
			g[c], beta[c] = 0, negZero32
		case 4:
			g[c] = inf32
		case 5:
			g[c] = -inf32
		case 6:
			beta[c] = nan32
		case 7:
			b[c] = inf32
		case 8:
			for r := 0; r < in; r++ {
				w.Set(r, c, 0)
			}
			w.Set(0, c, 1)
			b[c], g[c] = 0, inf32
		}
	}
	return []Layer{lin, bn, &ReLU{}}
}

// oddInput is a random activation with exact zeros, −0 and repeated values,
// and in column 0 a pattern of −1/0/+1 that sums to zero over every 32 rows
// and starts each group of 8 one step later than the last; poisoned plants
// NaN and ±Inf instead, which the Linear spreads over whole rows and
// BatchNorm's statistics over whole columns.
func oddInput(rng *rand.Rand, rows, cols int, poisoned bool) *tensor.Matrix {
	m := randInput(rng, rows, cols)
	odd := []float32{0, negZero32, 1, -1}
	if poisoned {
		odd = append(odd, nan32, inf32, -inf32)
	}
	for i := rng.Intn(7); i < len(m.Data); i += 1 + rng.Intn(61) {
		m.Data[i] = odd[rng.Intn(len(odd))]
	}
	if !poisoned {
		for r := 0; r < rows; r++ {
			m.Set(r, 0, []float32{1, 0, -1, 0}[(r+r/8)%4])
		}
	}
	return m
}

// oracle is the layer-by-layer chain with no workspace anywhere: the Linear
// as the backend's MatMulInto plus the reference bias sweep, a multi-row
// BatchNorm as refBN's loops (BatchNorm.Forward otherwise), ReLU.Forward and,
// for k > 0, tensor.MaxPoolGroups.
func oracle(t *testing.T, be tensor.Backend, layers []Layer, x *tensor.Matrix, k int) *tensor.Matrix {
	t.Helper()
	cur := x
	for _, l := range layers {
		var err error
		bn, isBN := l.(*BatchNorm)
		if lin, ok := l.(*Linear); ok {
			y := tensor.New(cur.Rows, lin.W.Value.Cols)
			if err = be.MatMulInto(y, cur, lin.W.Value); err == nil {
				err = tensor.AddBiasRows(y, lin.B.Value.Data)
			}
			cur = y
		} else if isBN && cur.Rows > 1 {
			cur, _, _ = refBN(bn, cur, false)
		} else {
			cur, err = l.Forward(cur, false)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if k > 0 {
		pooled, _, err := tensor.MaxPoolGroups(cur, k)
		if err != nil {
			t.Fatal(err)
		}
		cur = pooled
	}
	return cur
}

// TestFusedBlockMatchesLayerByLayer is the bit-identity contract of the
// inference epilogue: Sequential.Forward and ForwardPooled with a workspace
// — GEMM with the bias in its store, column-owned statistics, one fused
// normalise + ReLU (+ max-pool) pass — against the oracle chain, on every
// backend and core count, over row counts that straddle the single-row
// branch, the 4-row GEMM tile, the fan-out thresholds and W1's largest
// layer, and widths that straddle the 4-column floor, the 32-column
// statistics block and every remainder of the vector sweeps' 8- and 16-lane
// strips.
func TestFusedBlockMatchesLayerByLayer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rowCounts := []int{1, 2, 3, 5, 255, 256, 2047, 2048, 2049, 16384}
	widths := []int{1, 3, 4, 6, 7, 8, 9, 15, 16, 17, 19, 24, 35, 40, 67, 128}
	if testing.Short() {
		rowCounts = []int{1, 2, 5, 256, 2049}
	}
	const in = 6
	for _, name := range tensor.BackendNames() {
		for _, rows := range rowCounts {
			for ci, c := range widths {
				// One triple, and two while the second GEMM stays small, so a
				// fused block is also checked mid-chain, feeding another.
				for depth := 1; depth <= 2 && (depth == 1 || rows*c*c <= 1<<22); depth++ {
					rng := rand.New(rand.NewSource(int64(rows*1000 + c)))
					layers := oddTriple(rng, "a", in, c)
					if depth == 2 {
						layers = append(layers, oddTriple(rng, "b", c, c)...)
					}
					x := oddInput(rng, rows, in, ci%3 == 2)
					be, err := tensor.NewBackend(name)
					if err != nil {
						t.Fatal(err)
					}
					ks := []int{1, rows}
					if rows%8 == 0 {
						ks = append(ks, 8)
					}
					want := map[int]*tensor.Matrix{0: oracle(t, be, layers, x, 0)}
					for _, k := range ks {
						want[k] = oracle(t, be, layers, x, k)
					}

					mlp := NewSequential(layers...)
					ws := tensor.NewWorkspace()
					mlp.SetWorkspace(ws)
					mlp.SetBackend(be)
					for _, procs := range []int{1, 2, 3, 4, 8} {
						runtime.GOMAXPROCS(procs)
						what := fmt.Sprintf("%s, GOMAXPROCS %d, %d rows × %d, %d deep", name, procs, rows, c, depth)
						ws.Reset()
						got, err := mlp.Forward(x, false)
						if err != nil {
							t.Fatal(err)
						}
						requireSameBits(t, what+", Forward", got, want[0])
						for _, k := range ks {
							ws.Reset()
							got, err := mlp.ForwardPooled(x, k)
							if err != nil {
								t.Fatal(err)
							}
							requireSameBits(t, fmt.Sprintf("%s, ForwardPooled k=%d", what, k), got, want[k])
						}
					}
				}
			}
		}
	}
}

// TestForwardPooledWithoutTrailingTriple covers the chains the fusion does
// not recognise — an empty one, one ending in a bare Linear, a standalone
// BatchNorm — which must pool the layer-by-layer output all the same.
func TestForwardPooledWithoutTrailingTriple(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(41))
	x := oddInput(rng, 4096, 6, false)
	for name, layers := range map[string][]Layer{
		"empty":       nil,
		"bare linear": append(oddTriple(rng, "a", 6, 16), NewLinear("b", 16, 5, rng)),
		"bn alone":    {NewBatchNorm("bn", 6)},
		"dropout":     append(oddTriple(rng, "a", 6, 16), &Dropout{P: 0.5}),
	} {
		want := oracle(t, tensor.Naive(), layers, x, 8)
		mlp := NewSequential(layers...)
		ws := tensor.NewWorkspace()
		mlp.SetWorkspace(ws)
		for frame := 0; frame < 2; frame++ {
			ws.Reset()
			got, err := mlp.ForwardPooled(x, 8)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			requireSameBits(t, name, got, want)
			if ws.Owns(x) {
				t.Fatalf("%s: workspace claims the caller's input", name)
			}
			if st := ws.Stats(); st.Lent != 1 {
				t.Fatalf("%s: %d buffers outstanding after the pass, want only the result", name, st.Lent)
			}
		}
	}

	mlp := NewSharedMLP("t", []int{6, 8}, rng)
	if _, err := mlp.ForwardPooled(x, 8); err == nil {
		t.Fatal("ForwardPooled without a workspace: want error")
	}
	mlp.SetWorkspace(tensor.NewWorkspace())
	if _, err := mlp.ForwardPooled(x, 7); err == nil {
		t.Fatal("4096 rows in groups of 7: want error")
	}
	if _, err := mlp.ForwardPooled(x, 0); err == nil {
		t.Fatal("groups of 0: want error")
	}
}

// TestFusedBlockSteadyStateAllocations caps what a warm fused block costs
// the allocator: nothing on one core, and on two the fan-outs' closures — a
// body and one goroutine for each of GEMM, statistics and apply.
func TestFusedBlockSteadyStateAllocations(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(42))
	mlp := NewSharedMLP("t", []int{19, 32}, rng)
	ws := tensor.NewWorkspace()
	mlp.SetWorkspace(ws)
	x := randInput(rng, 4096, 19)
	frame := func() {
		ws.Reset()
		if _, err := mlp.ForwardPooled(x, 8); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct{ procs, ceiling int }{{1, 0}, {2, 6}} {
		runtime.GOMAXPROCS(c.procs)
		frame()
		if got := testing.AllocsPerRun(50, frame); got > float64(c.ceiling) {
			t.Fatalf("GOMAXPROCS %d: %v allocs per fused block, ceiling %d", c.procs, got, c.ceiling)
		}
	}
}

// TestUnconfiguredLinearUsesDefaultBackend is nn's third of the one-default
// rule: a workspace-attached Linear nobody gave a backend resolves to
// tensor.Default, the backend NewBackend("") names (internal/model and
// internal/pipeline pin the same for a Graph and for Build).
func TestUnconfiguredLinearUsesDefaultBackend(t *testing.T) {
	l := NewLinear("l", 3, 2, rand.New(rand.NewSource(43)))
	l.SetWorkspace(tensor.NewWorkspace())
	def, err := tensor.NewBackend("")
	if err != nil {
		t.Fatal(err)
	}
	if got := l.backend().Name(); got != def.Name() || got != tensor.DefaultBackend {
		t.Fatalf("unconfigured Linear runs %q, NewBackend(\"\") is %q, DefaultBackend %q", got, def.Name(), tensor.DefaultBackend)
	}
}
