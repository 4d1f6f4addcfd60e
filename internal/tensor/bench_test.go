package tensor

import (
	"math/rand"
	"testing"
)

func benchMatrix(rows, cols int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

// The §5.4.1 conv shapes: narrow channels (the tensor-core-idle case) vs the
// reshaped wide-channel equivalent with identical FLOPs.
func BenchmarkSec541ConvShapeNarrow(b *testing.B) {
	x := benchMatrix(10000, 12, 1)
	w := benchMatrix(12, 64, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatMul(x, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSec541ConvShapeWide(b *testing.B) {
	x := benchMatrix(1000, 120, 1)
	w := benchMatrix(120, 64, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatMul(x, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMulSquare128(b *testing.B) {
	x := benchMatrix(128, 128, 3)
	y := benchMatrix(128, 128, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatMul(x, y); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(128 * 128 * 4)
}

func BenchmarkMaxPoolGroups(b *testing.B) {
	x := benchMatrix(2048*8, 32, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MaxPoolGroups(x, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatMulAT measures the weight-gradient matmul (aᵀ·b) with the
// output rows split across workers; BenchmarkMatMulATSerial pins the
// single-goroutine accumulation on the same shapes. On a multi-core machine
// the parallel variant should show a wall-clock speedup; on one core the two
// coincide.
func BenchmarkMatMulAT(b *testing.B) {
	a := benchMatrix(8192, 32, 8)
	x := benchMatrix(8192, 32, 9)
	out := New(32, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MatMulATInto(out, a, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMulATSerial(b *testing.B) {
	a := benchMatrix(8192, 32, 8)
	x := benchMatrix(8192, 32, 9)
	out := New(32, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Zero()
		matMulATAccum(out, a, x, 0, a.Cols, 0, x.Cols)
	}
}

// BenchmarkMatMulInto vs BenchmarkMatMulSquare128 isolates the allocation
// cost of the non-Into kernel on the hot-path shape.
func BenchmarkMatMulInto128(b *testing.B) {
	x := benchMatrix(128, 128, 3)
	y := benchMatrix(128, 128, 4)
	out := New(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MatMulInto(out, x, y); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(128 * 128 * 4)
}

func BenchmarkGather(b *testing.B) {
	src := benchMatrix(2048, 32, 6)
	rng := rand.New(rand.NewSource(7))
	idx := make([]int, 2048*8)
	for i := range idx {
		idx[i] = rng.Intn(2048)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Gather(src, idx); err != nil {
			b.Fatal(err)
		}
	}
}
