package tensor

import (
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
