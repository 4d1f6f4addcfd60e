package model

import (
	"math"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n float32s flush against a PROT_NONE page at their end
// (atEnd) or start: a kernel that reads one element past the edge faults,
// which neither bounds checks nor the race detector can see inside assembly.
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

// TestKNNScanStaysInsideItsOperands runs the lane kernel with the query and
// the channel-major candidates flush against unmapped pages, at their end and
// then at their start, through to the last block.
func TestKNNScanStaysInsideItsOperands(t *testing.T) {
	if !knnAVX2 {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(30))
	for _, s := range []struct{ n, c int }{{8, 1}, {8, 5}, {16, 4}, {24, 9}, {1024, 16}} {
		for _, atEnd := range []bool{true, false} {
			m := knnCase(rng, "normal", s.n+1, s.c)
			q, ft := guarded(t, s.c, atEnd), guarded(t, s.c*s.n, atEnd)
			copy(q, m.Row(s.n))
			for j := 0; j < s.n; j++ {
				for c, v := range m.Row(j) {
					ft[c*s.n+j] = v
				}
			}
			// A threshold of −Inf admits nothing but NaN, so the scan
			// walks every block to the end of ft.
			checkScan(t, "between guard pages", q, ft, s.n, s.n, math.Inf(-1), true)
			checkScan(t, "between guard pages", q, ft, s.n, s.n, 1e300, false)
		}
	}
}

// TestKNNSymStaysInsideItsOperands is TestKNNScanStaysInsideItsOperands for
// the join's kernel, whose bounds are a third operand.
func TestKNNSymStaysInsideItsOperands(t *testing.T) {
	if !knnAVX2 {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(34))
	for _, s := range []struct{ n, c int }{{8, 1}, {8, 5}, {16, 4}, {24, 9}, {1024, 16}} {
		for _, atEnd := range []bool{true, false} {
			m := knnCase(rng, "normal", s.n+1, s.c)
			q, ft := guarded(t, s.c, atEnd), guarded(t, s.c*s.n, atEnd)
			thr := unsafe.Slice((*float64)(unsafe.Pointer(&guarded(t, 2*s.n, atEnd)[0])), s.n)
			copy(q, m.Row(s.n))
			for j := 0; j < s.n; j++ {
				for c, v := range m.Row(j) {
					ft[c*s.n+j] = v
				}
			}
			// Bounds of −Inf admit nothing, so the scan walks every block
			// to the end of ft and thr; then one of 1e300 stops at the first.
			for j := range thr {
				thr[j] = math.Inf(-1)
			}
			checkSym(t, "between guard pages", q, ft, thr, s.n, math.Inf(-1))
			checkSym(t, "between guard pages", q, ft, thr, s.n, 1e300)
		}
	}
}
