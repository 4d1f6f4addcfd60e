package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

func TestMatMulKnown(t *testing.T) {
	a, _ := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b, _ := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{58, 64, 139, 154}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("matmul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulShapeError(t *testing.T) {
	a := New(2, 3)
	b := New(2, 3)
	if _, err := MatMul(a, b); err == nil {
		t.Fatal("shape mismatch: want error")
	}
}

func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func matClose(a, b *Matrix, tol float32) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		if d < -tol || d > tol {
			return false
		}
	}
	return true
}

func TestMatMulVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		m, k, n := rng.Intn(8)+1, rng.Intn(8)+1, rng.Intn(8)+1
		a := randMatrix(rng, m, k)
		b := randMatrix(rng, k, n)
		want := naiveMatMul(a, b)
		got, err := MatMul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !matClose(got, want, 1e-4) {
			t.Fatal("MatMul disagrees with naive")
		}
		// a·bᵀ via MatMulBT equals MatMul(a, transpose(b)).
		bt := New(b.Cols, b.Rows)
		for i := 0; i < b.Rows; i++ {
			for j := 0; j < b.Cols; j++ {
				bt.Set(j, i, b.At(i, j))
			}
		}
		gotBT, err := MatMulBT(a, bt)
		if err != nil {
			t.Fatal(err)
		}
		if !matClose(gotBT, want, 1e-4) {
			t.Fatal("MatMulBT disagrees")
		}
		// aᵀ·b via MatMulAT.
		at := New(a.Cols, a.Rows)
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < a.Cols; j++ {
				at.Set(j, i, a.At(i, j))
			}
		}
		gotAT, err := MatMulAT(at, b)
		if err != nil {
			t.Fatal(err)
		}
		if !matClose(gotAT, want, 1e-4) {
			t.Fatal("MatMulAT disagrees")
		}
	}
}

func TestAddBiasRows(t *testing.T) {
	m, _ := FromSlice(2, 2, []float32{1, 2, 3, 4})
	if err := AddBiasRows(m, []float32{10, 20}); err != nil {
		t.Fatal(err)
	}
	want := []float32{11, 22, 13, 24}
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatalf("bias = %v", m.Data)
		}
	}
	if err := AddBiasRows(m, []float32{1}); err == nil {
		t.Fatal("bad bias length: want error")
	}
}

func TestGatherScatterAdjoint(t *testing.T) {
	// <Gather(x), y> == <x, ScatterAdd†(y)> — the defining adjoint property.
	rng := rand.New(rand.NewSource(5))
	src := randMatrix(rng, 6, 3)
	idx := []int{2, 2, 0, 5}
	g, err := Gather(src, idx)
	if err != nil {
		t.Fatal(err)
	}
	y := randMatrix(rng, 4, 3)
	lhs := 0.0
	for i := range g.Data {
		lhs += float64(g.Data[i] * y.Data[i])
	}
	back := New(6, 3)
	if err := ScatterAdd(back, y, idx); err != nil {
		t.Fatal(err)
	}
	rhs := 0.0
	for i := range src.Data {
		rhs += float64(src.Data[i] * back.Data[i])
	}
	if math.Abs(lhs-rhs) > 1e-4 {
		t.Fatalf("adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

func TestGatherOutOfRange(t *testing.T) {
	src := New(3, 2)
	if _, err := Gather(src, []int{0, 3}); err == nil {
		t.Fatal("index 3 of 3 rows: want error")
	}
	if err := ScatterAdd(src, New(1, 2), []int{-1}); err == nil {
		t.Fatal("negative index: want error")
	}
}

func TestMaxPoolGroups(t *testing.T) {
	// 2 groups of k=2, 2 channels.
	m, _ := FromSlice(4, 2, []float32{
		1, 9,
		5, 2,
		-1, -3,
		-2, -1,
	})
	out, argmax, err := MaxPoolGroups(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{5, 9, -1, -1}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("pool = %v, want %v", out.Data, want)
		}
	}
	wantArg := []int32{1, 0, 2, 3}
	for i := range wantArg {
		if argmax[i] != wantArg[i] {
			t.Fatalf("argmax = %v, want %v", argmax, wantArg)
		}
	}
	if _, _, err := MaxPoolGroups(m, 3); err == nil {
		t.Fatal("non-divisible groups: want error")
	}
}

func TestMaxPoolBackwardRouting(t *testing.T) {
	m, _ := FromSlice(4, 1, []float32{1, 5, 3, 2})
	out, argmax, err := MaxPoolGroups(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	_ = out
	grad, _ := FromSlice(2, 1, []float32{10, 20})
	back, err := MaxPoolBackward(grad, argmax, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 10, 20, 0}
	for i := range want {
		if back.Data[i] != want[i] {
			t.Fatalf("pool backward = %v, want %v", back.Data, want)
		}
	}
}

func TestColMax(t *testing.T) {
	m, _ := FromSlice(3, 2, []float32{1, 5, 7, 2, 3, 9})
	vals, argmax := ColMax(m)
	if vals[0] != 7 || vals[1] != 9 {
		t.Fatalf("vals = %v", vals)
	}
	if argmax[0] != 1 || argmax[1] != 2 {
		t.Fatalf("argmax = %v", argmax)
	}
}

func TestLogSoftmaxRows(t *testing.T) {
	m, _ := FromSlice(1, 3, []float32{1, 2, 3})
	LogSoftmaxRows(m)
	var sum float64
	for _, v := range m.Row(0) {
		sum += math.Exp(float64(v))
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("softmax sums to %v", sum)
	}
	// Numerical stability with large logits.
	big, _ := FromSlice(1, 2, []float32{1000, 999})
	LogSoftmaxRows(big)
	for _, v := range big.Row(0) {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("log-softmax overflowed")
		}
	}
}

// TestLogSoftmaxRowsFanOut applies LogSoftmaxRows to enough rows to fan out
// and requires the serial bits at two and four workers; scripts/ci.sh runs
// it under the race detector.
func TestLogSoftmaxRowsFanOut(t *testing.T) {
	x := randMatrix(rand.New(rand.NewSource(11)), 2048, 10)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	want := x.Clone()
	LogSoftmaxRows(want)
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		got := x.Clone()
		LogSoftmaxRows(got)
		for i, v := range got.Data {
			if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
				t.Fatalf("GOMAXPROCS %d: element %d is %v, serial %v", procs, i, v, want.Data[i])
			}
		}
	}
}

func TestConcatSplitRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, c1, c2 := rng.Intn(5)+1, rng.Intn(4)+1, rng.Intn(4)+1
		a := randMatrix(rng, rows, c1)
		b := randMatrix(rng, rows, c2)
		cat, err := Concat(a, b)
		if err != nil {
			return false
		}
		l, r, err := SplitCols(cat, c1)
		if err != nil {
			return false
		}
		return l.Equal(a) && r.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConcatRowMismatch(t *testing.T) {
	if _, err := Concat(New(2, 1), New(3, 1)); err == nil {
		t.Fatal("row mismatch: want error")
	}
	if _, _, err := SplitCols(New(2, 3), 5); err == nil {
		t.Fatal("split beyond cols: want error")
	}
}

func TestFromSlice(t *testing.T) {
	if _, err := FromSlice(2, 2, []float32{1, 2, 3}); err == nil {
		t.Fatal("bad length: want error")
	}
	m, err := FromSlice(2, 2, []float32{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v", m.At(1, 0))
	}
}

func TestCloneAndZero(t *testing.T) {
	m, _ := FromSlice(1, 2, []float32{1, 2})
	c := m.Clone()
	c.Data[0] = 9
	if m.Data[0] == 9 {
		t.Fatal("clone aliases")
	}
	m.Zero()
	if m.Data[0] != 0 || m.Data[1] != 0 {
		t.Fatal("zero failed")
	}
}
