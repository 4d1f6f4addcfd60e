package tensor

import (
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n float32s whose last byte (atEnd) or first byte is the
// one next to a PROT_NONE page: a kernel that reads or writes one element
// past that edge faults, which neither bounds checks nor the race detector
// can see inside assembly.
func guarded(t *testing.T, n int, atEnd bool) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
	body := (n*4 + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, body+2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // nothing to do about a failed unmap
	for _, guard := range [][]byte{mem[:page], mem[page+body:]} {
		if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
			t.Fatal(err)
		}
	}
	off := page
	if atEnd {
		off = page + body - n*4
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[off])), n)
}

// TestVectorGEMMStaysInsideItsOperands runs the kernel with every operand
// flush against an unmapped page, at its end and then at its start, over
// shapes with and without ragged edges.
func TestVectorGEMMStaysInsideItsOperands(t *testing.T) {
	skipWithoutAVX2(t)
	rng := rand.New(rand.NewSource(26))
	be := Blocked()
	for _, s := range []struct{ m, k, n int }{{4, 1, 8}, {4, 6, 16}, {8, 19, 24}, {9, 3, 17}, {255, 35, 40}, {257, 67, 33}, {516, 5, 128}} {
		for _, atEnd := range []bool{true, false} {
			place := func(src *Matrix) *Matrix {
				m := &Matrix{Rows: src.Rows, Cols: src.Cols, Data: guarded(t, len(src.Data), atEnd)}
				copy(m.Data, src.Data)
				return m
			}
			a, b := place(edgeMatrix(rng, s.m, s.k)), place(edgeMatrix(rng, s.k, s.n))
			bias := place(edgeMatrix(rng, 1, s.n)).Data
			got, want := place(New(s.m, s.n)), New(s.m, s.n)
			if err := be.MatMulBiasInto(got, a, b, bias); err != nil {
				t.Fatal(err)
			}
			blockedMatMulTile(want, a, b, bias, 0, s.m, 0, s.n)
			for i, w := range want.Data {
				if !sameBits(got.Data[i], w) {
					t.Fatalf("%dx%d·%dx%d between guard pages: cell %d is %g, want %g", s.m, s.k, s.k, s.n, i, got.Data[i], w)
				}
			}
		}
	}
}

// TestVectorPoolStaysInsideItsOperands runs the argmax pool with the grouped
// input, the maxima and the argmax each flush against an unmapped page, at
// its end and then at its start, over widths with and without a ragged strip
// and across the kernel's call bound.
func TestVectorPoolStaysInsideItsOperands(t *testing.T) {
	skipWithoutAVX2(t)
	rng := rand.New(rand.NewSource(31))
	for _, s := range []struct{ n, k, c int }{{1, 1, 8}, {1, 3, 9}, {2, 8, 16}, {7, 2, 17}, {1030, 8, 24}, {300, 8, 64}} {
		for _, atEnd := range []bool{true, false} {
			place := func(src *Matrix) *Matrix {
				m := &Matrix{Rows: src.Rows, Cols: src.Cols, Data: guarded(t, len(src.Data), atEnd)}
				copy(m.Data, src.Data)
				return m
			}
			grouped := place(tiedMatrix(rng, s.n*s.k, s.c))
			got, arg := place(New(s.n, s.c)), place(New(s.n, s.c))
			if err := MaxPoolGroupsInto(got, arg.Int32s(), grouped, s.k); err != nil {
				t.Fatal(err)
			}
			want, wantArg := New(s.n, s.c), make([]int32, s.n*s.c)
			maxPoolArgCols(want, wantArg, grouped, s.k, 0, s.n, 0, s.c)
			requireSameBits(t, "argmax pool between guard pages", got, want)
			requireSameArgmax(t, "argmax pool between guard pages", arg.Int32s(), wantArg, s.c)
		}
	}
}

// TestVectorATBTStayInsideTheirOperands runs both backward products with
// every operand flush against an unmapped page, at its end and then at its
// start, over shapes with and without ragged edges and across the 256-row
// block of the AT kernel.
func TestVectorATBTStayInsideTheirOperands(t *testing.T) {
	skipWithoutAVX2(t)
	rng := rand.New(rand.NewSource(30))
	for _, s := range []struct{ m, k, n int }{{4, 1, 8}, {4, 6, 16}, {8, 19, 24}, {9, 3, 17}, {33, 257, 40}, {36, 513, 8}} {
		for _, atEnd := range []bool{true, false} {
			place := func(src *Matrix) *Matrix {
				m := &Matrix{Rows: src.Rows, Cols: src.Cols, Data: guarded(t, len(src.Data), atEnd)}
				copy(m.Data, src.Data)
				return m
			}
			a, b, w := place(edgeMatrix(rng, s.k, s.m)), place(edgeMatrix(rng, s.k, s.n)), place(edgeMatrix(rng, s.n, s.m))
			got, want := place(New(s.m, s.n)), New(s.m, s.n)
			if err := MatMulATInto(got, a, b); err != nil {
				t.Fatal(err)
			}
			matMulATAccum(want, a, b, 0, s.m, 0, s.n)
			requireSameBits(t, "MatMulATInto between guard pages", got, want)
			got, want = place(New(s.k, s.n)), New(s.k, s.n)
			if err := MatMulBTInto(got, a, w); err != nil {
				t.Fatal(err)
			}
			matMulBTRows(want, a, w, 0, s.k)
			requireSameBits(t, "MatMulBTInto between guard pages", got, want)
		}
	}
}
