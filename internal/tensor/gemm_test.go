package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// edgeMatrix is a random matrix salted with what a vector lane could treat
// differently from the scalar unit: NaN, ±Inf, −0, denormals, factors whose
// products are denormal, and factors whose products or partial sums overflow
// mid-k (and then meet the opposite infinity).
func edgeMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := randomMatrix(rows, cols, rng)
	edge := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1)), 0,
		1e-40, -1e-40, math.SmallestNonzeroFloat32, 1e-25, -1e-25, 3e38, -3e38, 1e20, -1e20,
	}
	for i := rng.Intn(5); i < len(m.Data); i += 1 + rng.Intn(23) {
		m.Data[i] = edge[rng.Intn(len(edge))]
	}
	return m
}

// sentinel is a NaN payload no kernel produces: the border of a destination
// embedded in a larger slice must still hold it after the call.
const sentinel = 0x7fc5a5a5

// embedded returns a rows×cols matrix whose Data sits pad elements inside a
// sentinel-filled slice, and that slice.
func embedded(rows, cols, pad int) (*Matrix, []float32) {
	whole := make([]float32, rows*cols+2*pad)
	for i := range whole {
		whole[i] = math.Float32frombits(sentinel)
	}
	return &Matrix{Rows: rows, Cols: cols, Data: whole[pad : pad+rows*cols]}, whole
}

func requireBorder(t *testing.T, what string, whole []float32, pad int) {
	t.Helper()
	for i, v := range whole {
		if (i < pad || i >= len(whole)-pad) && math.Float32bits(v) != sentinel {
			t.Fatalf("%s: wrote %08x outside the destination, at offset %d of %d (pad %d)", what, math.Float32bits(v), i, len(whole), pad)
		}
	}
}

func skipWithoutAVX2(t *testing.T) {
	t.Helper()
	if !hasAVX2 {
		t.Skip("no AVX2 on this host: blocked runs the Go kernel the vector one is compared with")
	}
}

// TestVectorGEMMMatchesScalarBits is the bit-identity contract of the AVX2
// kernel: blocked's MatMulBiasInto — vector tiles, Go ragged edges, any row
// split — against blockedMatMulTile alone, the kernel it replaces and every
// other host runs, compared bit for bit (any NaN equals any NaN) over shapes
// that hit every remainder of the 4-row, 16- and 8-column tiles and of the
// 256-row call bound, with and without a bias, inside a sentinel border.
func TestVectorGEMMMatchesScalarBits(t *testing.T) {
	skipWithoutAVX2(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rowCounts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256, 257, 1024}
	ks := []int{1, 2, 3, 4, 5, 6, 19, 35, 67, 192}
	ns := []int{1, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 64, 128}
	const pad = 40
	be := Blocked()
	rng := rand.New(rand.NewSource(24))
	for _, rows := range rowCounts {
		for _, k := range ks {
			for _, n := range ns {
				a, b := edgeMatrix(rng, rows, k), edgeMatrix(rng, k, n)
				for _, bias := range [][]float32{nil, edgeMatrix(rng, 1, n).Data} {
					want := New(rows, n)
					blockedMatMulTile(want, a, b, bias, 0, rows, 0, n)
					for _, procs := range []int{1, 2, 3, 4, 8} {
						runtime.GOMAXPROCS(procs)
						got, whole := embedded(rows, n, pad)
						if err := be.MatMulBiasInto(got, a, b, bias); err != nil {
							t.Fatal(err)
						}
						for i, w := range want.Data {
							if g := got.Data[i]; !sameBits(g, w) {
								t.Fatalf("GOMAXPROCS %d, %dx%d·%dx%d, bias %v: cell (%d,%d) is %08x (%g), scalar kernel %08x (%g)",
									procs, rows, k, k, n, bias != nil, i/n, i%n, math.Float32bits(g), g, math.Float32bits(w), w)
							}
						}
						requireBorder(t, "MatMulBiasInto", whole, pad)
					}
				}
			}
		}
	}
}

// transpose returns mᵀ as a new matrix.
func transpose(m *Matrix) *Matrix {
	t := New(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c, v := range m.Row(r) {
			t.Data[c*m.Rows+r] = v
		}
	}
	return t
}

// requireSameBits fails unless got and want agree bit for bit, any NaN
// equal to any NaN.
func requireSameBits(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	for i, w := range want.Data {
		if g := got.Data[i]; !sameBits(g, w) {
			t.Fatalf("%s: cell (%d,%d) is %08x (%g), want %08x (%g)", what, i/want.Cols, i%want.Cols, math.Float32bits(g), g, math.Float32bits(w), w)
		}
	}
}

// TestVectorATBTMatchesScalarBits is the bit-identity contract of the two
// backward products: MatMulATInto — vector tiles reading a by stride, Go
// ragged edges, blocks of 256 rows of a, any split of its output rows — and
// MatMulBTInto — blocked's kernels against a transposed b — against their Go
// loops, the kernels every other host runs, compared bit for bit over shapes
// with every remainder of the 4-row and 8- and 16-column tiles, k from 1 to
// 8192, at GOMAXPROCS 1, 2, 3, 4 and 8, inside a sentinel border.
func TestVectorATBTMatchesScalarBits(t *testing.T) {
	skipWithoutAVX2(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type shape struct{ m, k, n int }
	var shapes []shape
	for _, m := range []int{1, 3, 4, 5, 8, 9, 17, 33} {
		for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 24, 33} {
			for _, k := range []int{1, 2, 3, 8, 255, 256, 257} {
				shapes = append(shapes, shape{m, k, n})
			}
		}
	}
	shapes = append(shapes, shape{32, 8192, 16}, shape{35, 8192, 64}, shape{64, 1030, 128}, shape{260, 600, 24})
	const pad = 40
	rng := rand.New(rand.NewSource(28))
	for _, s := range shapes {
		// AT: (k×m)ᵀ·(k×n); BT: (k×m)·(n×m)ᵀ, so both read a k×m a.
		a, b, w := edgeMatrix(rng, s.k, s.m), edgeMatrix(rng, s.k, s.n), edgeMatrix(rng, s.n, s.m)
		wantAT, wantBT := New(s.m, s.n), New(s.k, s.n)
		matMulATAccum(wantAT, a, b, 0, s.m, 0, s.n)
		matMulBTRows(wantBT, a, w, 0, s.k)
		for _, procs := range []int{1, 2, 3, 4, 8} {
			runtime.GOMAXPROCS(procs)
			got, whole := embedded(s.m, s.n, pad)
			if err := MatMulATInto(got, a, b); err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, fmt.Sprintf("GOMAXPROCS %d, (%dx%d)ᵀ·%dx%d", procs, s.k, s.m, s.k, s.n), got, wantAT)
			requireBorder(t, "MatMulATInto", whole, pad)
			got, whole = embedded(s.k, s.n, pad)
			if err := MatMulBTInto(got, a, w); err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, fmt.Sprintf("GOMAXPROCS %d, %dx%d·(%dx%d)ᵀ", procs, s.k, s.m, s.n, s.m), got, wantBT)
			requireBorder(t, "MatMulBTInto", whole, pad)
		}
	}
}

// TestZeroTimesInfIsNaNEverywhere pins that no kernel skips a zero operand:
// a zero in a meeting an Inf or NaN in b is NaN in IEEE arithmetic, and the
// reference, blocked and both backward products must all say so, bit for bit
// alike — aᵀ·b and a·bᵀ checked against the reference a·b of the transposed
// operand, which sums every cell in the same order.
func TestZeroTimesInfIsNaNEverywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, s := range []struct{ m, k, n int }{{1, 1, 1}, {4, 3, 8}, {9, 17, 33}, {64, 40, 24}} {
		a, b := randomMatrix(s.m, s.k, rng), randomMatrix(s.k, s.n, rng)
		// Row 0 of a is all zeros, and so is every third element.
		for i := range a.Data {
			if i < s.k || i%3 == 0 {
				a.Data[i] = 0
			}
		}
		nonFinite := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
		for i := 0; i < len(b.Data); i += 5 {
			b.Data[i] = nonFinite[i%len(nonFinite)]
		}
		want := New(s.m, s.n)
		if err := MatMulInto(want, a, b); err != nil {
			t.Fatal(err)
		}
		if v := want.At(0, 0); !math.IsNaN(float64(v)) {
			t.Fatalf("%dx%d·%dx%d: the reference gives %g for a zero row against an Inf/NaN, want NaN", s.m, s.k, s.k, s.n, v)
		}
		got := New(s.m, s.n)
		if err := Blocked().MatMulInto(got, a, b); err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, "blocked against the reference", got, want)
		if err := MatMulATInto(got, transpose(a), b); err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, "MatMulATInto against the reference", got, want)
		if err := MatMulBTInto(got, a, transpose(b)); err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, "MatMulBTInto against the reference", got, want)
		oracle := New(s.m, s.n)
		matMulATAccum(oracle, transpose(a), b, 0, s.m, 0, s.n)
		requireSameBits(t, "matMulATAccum against the reference", oracle, want)
		matMulBTRows(oracle, a, transpose(b), 0, s.m)
		requireSameBits(t, "matMulBTRows against the reference", oracle, want)
	}
}
