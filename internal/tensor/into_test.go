package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/parallel"
)

// garbageMatrix returns a rows×cols matrix prefilled with NaN and junk, the
// worst case for an Into kernel that forgets to overwrite a cell.
func garbageMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		if i%3 == 0 {
			m.Data[i] = float32(math.NaN())
		} else {
			m.Data[i] = float32(rng.NormFloat64() * 1e6)
		}
	}
	return m
}

// firstParallel returns the smallest row count at which workers reports a
// fan-out under the current GOMAXPROCS: the serial/parallel boundary of a
// kernel, read from the function the kernel itself calls rather than from a
// copy of its constants. Call it after raising GOMAXPROCS.
func firstParallel(t *testing.T, workers func(rows int) int) int {
	t.Helper()
	for rows := 1; rows <= 1<<20; rows++ {
		if workers(rows) > 1 {
			return rows
		}
	}
	t.Fatal("kernel never fans out below 1M rows")
	return 0
}

// rowSplit is the boundary of the kernels that split by row count alone.
func rowSplit(t *testing.T) int { return firstParallel(t, parallel.Workers) }

// intoShapes exercises degenerate shapes and row counts straddling split,
// where an m×4·4×3 kernel switches from the serial loop to goroutines, so
// both code paths are covered.
func intoShapes(split int) []struct{ m, k, n int } {
	return []struct{ m, k, n int }{
		{1, 1, 1},
		{1, 7, 1},
		{1, 1, 7},
		{3, 5, 4},
		{split - 1, 4, 3},
		{split, 4, 3},
		{split + 1, 4, 3},
	}
}

func TestMatMulIntoMatchesMatMul(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(11))
	split := firstParallel(t, func(rows int) int { return matMulWorkers(rows, 4, 3, minMatMulWork) })
	for _, s := range intoShapes(split) {
		a := randMatrix(rng, s.m, s.k)
		b := randMatrix(rng, s.k, s.n)
		want, err := MatMul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		out := garbageMatrix(rng, s.m, s.n)
		if err := MatMulInto(out, a, b); err != nil {
			t.Fatal(err)
		}
		if !out.Equal(want) {
			t.Fatalf("%dx%d·%dx%d: MatMulInto differs from MatMul", s.m, s.k, s.k, s.n)
		}
	}
}

func TestMatMulBTIntoMatchesMatMulBT(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(12))
	for _, s := range intoShapes(rowSplit(t)) {
		a := randMatrix(rng, s.m, s.k)
		b := randMatrix(rng, s.n, s.k)
		want, err := MatMulBT(a, b)
		if err != nil {
			t.Fatal(err)
		}
		out := garbageMatrix(rng, s.m, s.n)
		if err := MatMulBTInto(out, a, b); err != nil {
			t.Fatal(err)
		}
		if !out.Equal(want) {
			t.Fatalf("%dx%d·(%dx%d)ᵀ: MatMulBTInto differs from MatMulBT", s.m, s.k, s.n, s.k)
		}
	}
}

func TestMatMulATIntoMatchesMatMulAT(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(13))
	// The k dimension (a.Rows) drives the parallel split here.
	for _, s := range intoShapes(rowSplit(t)) {
		a := randMatrix(rng, s.m, s.k)
		b := randMatrix(rng, s.m, s.n)
		want, err := MatMulAT(a, b)
		if err != nil {
			t.Fatal(err)
		}
		out := garbageMatrix(rng, s.k, s.n)
		if err := MatMulATInto(out, a, b); err != nil {
			t.Fatal(err)
		}
		// MatMulAT delegates to MatMulATInto, so the two are bit-identical by
		// construction whatever the worker count.
		if !out.Equal(want) {
			t.Fatalf("(%dx%d)ᵀ·%dx%d: MatMulATInto differs from MatMulAT", s.m, s.k, s.m, s.n)
		}
	}
}

// TestMatMulATParallelMatchesSerial pins the output-row split against a
// single-goroutine run of the same kernel at every worker count: each cell
// sums the shared dimension in index order whoever owns it, so the results
// are bit-identical — weight gradients must not depend on GOMAXPROCS.
func TestMatMulATParallelMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(14))
	runtime.GOMAXPROCS(4)
	k, m, n := 3*rowSplit(t)+17, 4*minATCols+5, 6
	a := randMatrix(rng, k, m)
	b := randMatrix(rng, k, n)

	serial := New(m, n)
	matMulATAccum(serial, a, b, 0, m, 0, n)

	for _, procs := range []int{1, 2, 3, 4, 8} {
		runtime.GOMAXPROCS(procs)
		par := garbageMatrix(rng, m, n)
		if err := MatMulATInto(par, a, b); err != nil {
			t.Fatal(err)
		}
		if !par.Equal(serial) {
			t.Fatalf("GOMAXPROCS=%d: MatMulATInto differs from the serial accumulation", procs)
		}
	}
}

func TestGatherIntoMatchesGather(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(15))
	src := randMatrix(rng, 37, 5)
	for _, rows := range []int{1, 7, rowSplit(t) + 3} {
		idx := make([]int, rows)
		for i := range idx {
			idx[i] = rng.Intn(src.Rows)
		}
		want, err := Gather(src, idx)
		if err != nil {
			t.Fatal(err)
		}
		out := garbageMatrix(rng, rows, src.Cols)
		if err := GatherInto(out, src, idx); err != nil {
			t.Fatal(err)
		}
		if !out.Equal(want) {
			t.Fatalf("rows=%d: GatherInto differs from Gather", rows)
		}
	}
}

func TestGatherIntoBadIndex(t *testing.T) {
	src := New(4, 2)
	out := New(2, 2)
	if err := GatherInto(out, src, []int{0, 4}); err == nil {
		t.Fatal("out-of-range index: want error")
	}
	if err := GatherInto(out, src, []int{-1, 0}); err == nil {
		t.Fatal("negative index: want error")
	}
}

func TestConcatIntoMatchesConcat(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(16))
	for _, rows := range []int{1, 5, rowSplit(t) + 1} {
		a := randMatrix(rng, rows, 3)
		b := randMatrix(rng, rows, 4)
		want, err := Concat(a, b)
		if err != nil {
			t.Fatal(err)
		}
		out := garbageMatrix(rng, rows, 7)
		if err := ConcatInto(out, a, b); err != nil {
			t.Fatal(err)
		}
		if !out.Equal(want) {
			t.Fatalf("rows=%d: ConcatInto differs from Concat", rows)
		}
	}
}

func TestMaxPoolGroupsIntoMatchesMaxPoolGroups(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(17))
	for _, c := range []struct{ n, k, cols int }{
		{1, 1, 1}, {4, 3, 5}, {rowSplit(t) + 2, 4, 3},
	} {
		grouped := randMatrix(rng, c.n*c.k, c.cols)
		want, wantArg, err := MaxPoolGroups(grouped, c.k)
		if err != nil {
			t.Fatal(err)
		}
		out := garbageMatrix(rng, c.n, c.cols)
		argmax := make([]int32, c.n*c.cols)
		if err := MaxPoolGroupsInto(out, argmax, grouped, c.k); err != nil {
			t.Fatal(err)
		}
		if !out.Equal(want) {
			t.Fatalf("n=%d k=%d: MaxPoolGroupsInto differs from MaxPoolGroups", c.n, c.k)
		}
		for i := range argmax {
			if argmax[i] != wantArg[i] {
				t.Fatalf("n=%d k=%d: argmax[%d] = %d, want %d", c.n, c.k, i, argmax[i], wantArg[i])
			}
		}
		// The nil-argmax inference variant must produce the same values.
		out2 := garbageMatrix(rng, c.n, c.cols)
		if err := MaxPoolGroupsInto(out2, nil, grouped, c.k); err != nil {
			t.Fatal(err)
		}
		if !out2.Equal(want) {
			t.Fatalf("n=%d k=%d: nil-argmax MaxPoolGroupsInto differs", c.n, c.k)
		}
	}
}

func TestIntoShapeErrors(t *testing.T) {
	a := New(2, 3)
	b := New(3, 4)
	if err := MatMulInto(New(2, 5), a, b); err == nil {
		t.Fatal("wrong destination shape: want error")
	}
	if err := MatMulBTInto(New(2, 2), a, New(5, 3)); err == nil {
		t.Fatal("wrong destination shape: want error")
	}
	if err := MatMulATInto(New(3, 3), a, New(2, 4)); err == nil {
		t.Fatal("wrong destination shape: want error")
	}
	if err := GatherInto(New(2, 2), a, []int{0, 1}); err == nil {
		t.Fatal("wrong destination cols: want error")
	}
	if err := ConcatInto(New(2, 6), a, New(2, 4)); err == nil {
		t.Fatal("wrong destination cols: want error")
	}
	if err := MaxPoolGroupsInto(New(1, 3), nil, New(4, 3), 3); err == nil {
		t.Fatal("indivisible group count: want error")
	}
}

func TestIntoAliasErrors(t *testing.T) {
	a := New(2, 2)
	b := New(2, 2)
	if err := MatMulInto(a, a, b); err == nil {
		t.Fatal("destination aliasing a: want error")
	}
	if err := MatMulBTInto(b, a, b); err == nil {
		t.Fatal("destination aliasing b: want error")
	}
	if err := MatMulATInto(a, a, b); err == nil {
		t.Fatal("destination aliasing a: want error")
	}
	if err := GatherInto(a, a, []int{0, 1}); err == nil {
		t.Fatal("destination aliasing source: want error")
	}
	// A shape-valid aliased concat needs a destination sharing the input's
	// backing array start — exactly what a workspace misuse would produce.
	backing := make([]float32, 8)
	left, _ := FromSlice(2, 2, backing[:4])
	dst, _ := FromSlice(2, 4, backing)
	if err := ConcatInto(dst, left, New(2, 2)); err == nil {
		t.Fatal("destination aliasing input: want error")
	}
	g := New(2, 2)
	if err := MaxPoolGroupsInto(g, nil, g, 1); err == nil {
		t.Fatal("destination aliasing grouped: want error")
	}
}
