package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// tiedMatrix is a grouped matrix drawn from a handful of values, so that
// maxima tie inside most groups, salted with NaN, ±Inf, ±0 and denormals.
func tiedMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	vals := []float32{
		-1, 0, float32(math.Copysign(0, -1)), 1, 2, 2, 2,
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 1e-40, -1e-40, math.SmallestNonzeroFloat32,
	}
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = vals[rng.Intn(len(vals))]
	}
	return m
}

// requireSameArgmax fails unless got and want hold the same rows.
func requireSameArgmax(t *testing.T, what string, got, want []int32, cols int) {
	t.Helper()
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("%s: argmax of cell (%d,%d) is row %d, want %d", what, i/cols, i%cols, got[i], w)
		}
	}
}

// TestVectorPoolMatchesGoLoop is the contract of the train-mode pool's AVX2
// kernel: MaxPoolGroupsInto with an argmax — vector strips, Go ragged columns,
// any split of the groups — against maxPoolArgCols alone, the loop it replaces
// and every other host runs: maxima bit for bit (any NaN equal to any NaN) and
// argmax row for row, over widths with every strip remainder, group counts
// around the fan-out threshold and group sizes 1 to 17, on inputs where ties,
// NaN, ±Inf, ±0 and denormals decide which row wins, inside a sentinel border.
func TestVectorPoolMatchesGoLoop(t *testing.T) {
	skipWithoutAVX2(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(30))
	const pad = 40
	for _, c := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 24, 40, 64} {
		for _, n := range []int{1, 2, 7, 2050} {
			for _, k := range []int{1, 2, 8, 17} {
				for _, src := range []*Matrix{tiedMatrix(rng, n*k, c), edgeMatrix(rng, n*k, c)} {
					want, wantArg := New(n, c), make([]int32, n*c)
					maxPoolArgCols(want, wantArg, src, k, 0, n, 0, c)
					for _, procs := range []int{1, 4} {
						runtime.GOMAXPROCS(procs)
						what := fmt.Sprintf("GOMAXPROCS %d, %d groups of %d × %d", procs, n, k, c)
						got, whole := embedded(n, c, pad)
						arg, argWhole := embedded(n, c, pad)
						if err := MaxPoolGroupsInto(got, arg.Int32s(), src, k); err != nil {
							t.Fatal(err)
						}
						requireSameBits(t, what, got, want)
						requireSameArgmax(t, what, arg.Int32s(), wantArg, c)
						requireBorder(t, what+", maxima", whole, pad)
						requireBorder(t, what+", argmax", argWhole, pad)
					}
				}
			}
		}
	}
}

// TestPoolTiesKeepTheLowestRow pins the tie rule both forms share: in groups
// of equal rows every maximum comes from the group's first row, and a NaN
// seed is never replaced.
func TestPoolTiesKeepTheLowestRow(t *testing.T) {
	const n, k, c = 3, 5, 19
	grouped := New(n*k, c)
	for i := range grouped.Data {
		grouped.Data[i] = 7
	}
	nan := float32(math.NaN())
	grouped.Set(k, 4, nan) // group 1's first row: NaN seeds column 4
	out, argmax := New(n, c), make([]int32, n*c)
	if err := MaxPoolGroupsInto(out, argmax, grouped, k); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < n; g++ {
		for j := 0; j < c; j++ {
			if got := argmax[g*c+j]; got != int32(g*k) {
				t.Fatalf("group %d column %d: argmax row %d, want %d", g, j, got, g*k)
			}
		}
	}
	if v := out.At(1, 4); !math.IsNaN(float64(v)) {
		t.Fatalf("a NaN seed was replaced by %g", v)
	}
}
