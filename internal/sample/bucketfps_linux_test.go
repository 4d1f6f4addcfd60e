package sample

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n 8-byte elements flush against a PROT_NONE page at their
// end (atEnd) or start: a kernel that reads one element past the edge
// faults, which neither bounds checks nor the race detector can see inside
// assembly.
func guarded[T float64 | int](t *testing.T, n int, atEnd bool) []T {
	t.Helper()
	page := syscall.Getpagesize()
	body := (n*8 + page - 1) / page * page
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
		off = page + body - n*8
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[off])), n)
}

// TestVectorKernelsStayInsideTheirOperands runs the three kernels with every
// operand — the level's columns, the distances, the picks — flush against
// unmapped pages, at their end and then at their start, at lengths that leave
// every ragged last block and at a whole replay block.
func TestVectorKernelsStayInsideTheirOperands(t *testing.T) {
	if !fpsAVX2 {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{4, 5, 6, 7, 8, 9, 11, 16, 63, 64} {
		for _, atEnd := range []bool{true, false} {
			src := newKernelCase(rng, n, n)
			c := kernelCase{
				lvl:   Coords{X: guarded[float64](t, n, atEnd), Y: guarded[float64](t, n, atEnd), Z: guarded[float64](t, n, atEnd)},
				dist:  guarded[float64](t, n, atEnd),
				picks: guarded[int](t, n, atEnd),
				box:   src.box,
			}
			for _, col := range [][2][]float64{{c.lvl.X, src.lvl.X}, {c.lvl.Y, src.lvl.Y}, {c.lvl.Z, src.lvl.Z}, {c.dist, src.dist}} {
				copy(col[0], col[1])
			}
			copy(c.picks, src.picks)
			checkKernels(t, fmt.Sprintf("n=%d between guard pages (at end %v)", n, atEnd), c)
		}
	}
}
