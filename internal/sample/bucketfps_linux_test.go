package sample

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n elements flush against a PROT_NONE page at their end
// (atEnd) or start: a kernel that reads one element past the edge faults,
// which neither bounds checks nor the race detector can see inside
// assembly.
func guarded[T float32 | float64 | int | int32](t *testing.T, n int, atEnd bool) []T {
	t.Helper()
	size := int(unsafe.Sizeof(*new(T)))
	page := syscall.Getpagesize()
	body := (n*size + page - 1) / page * page
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
		off = page + body - n*size
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

// TestApplyPlanKernelStaysInsideItsOperands runs applyPlan3 with the source
// rows, the destination, the indexes and the weights each flush against an
// unmapped page, at its end and then at its start, at widths that leave every
// ragged last block: the masked loads and stores must touch no column past
// featDim, in the last source row or the last destination row.
func TestApplyPlanKernelStaysInsideItsOperands(t *testing.T) {
	if !applyAVX2 {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(9))
	const rows, targets = 5, 4
	for featDim := 1; featDim <= 17; featDim++ {
		for _, atEnd := range []bool{true, false} {
			plan := randomPlan(rng, targets, 3, rows)
			src := randomFeatures(rng, rows*featDim)
			want := make([]float32, targets*featDim)
			applyPlanGo(plan, src, featDim, want, featDim)

			gSrc, gDst := guarded[float32](t, len(src), atEnd), guarded[float32](t, len(want), atEnd)
			gIdx, gW := guarded[int32](t, len(plan.Indexes), atEnd), guarded[float32](t, len(plan.Weights), atEnd)
			copy(gSrc, src)
			copy(gIdx, plan.Indexes)
			copy(gW, plan.Weights)
			applyPlan3(&gDst[0], featDim, &gSrc[0], featDim, &gIdx[0], &gW[0], targets)
			if i, ok := sameFloats(gDst, want); !ok {
				t.Fatalf("featDim %d between guard pages (at end %v): element %d is %v, want %v", featDim, atEnd, i, gDst[i], want[i])
			}
		}
	}
}
