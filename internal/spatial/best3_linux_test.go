package spatial

import (
	"math/rand"
	"reflect"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/geom"
)

// guarded returns n elements flush against a PROT_NONE page at their end
// (atEnd) or start: a kernel that reads or writes one element past the edge
// faults, which neither bounds checks nor the race detector can see inside
// assembly.
func guarded[T float64 | int32 | int | geom.Point3](t *testing.T, n int, atEnd bool) []T {
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

// TestBest3KernelStaysInsideItsOperands runs best3AVX2 with the candidate
// columns, the distances and the hits each flush against an unmapped page,
// at its end and then at its start, at lengths that leave every ragged last
// block: the columns and distances are n long, the hits n rounded up to a
// multiple of 4, as the contract says.
func TestBest3KernelStaysInsideItsOperands(t *testing.T) {
	if !best3Vec {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(47))
	for n := 1; n <= 13; n++ {
		for _, atEnd := range []bool{true, false} {
			x, y, z := candidates(rng, n, 1)
			q := geom.Point3{X: 1, Y: 1, Z: 0.5}
			wantD, wantT, wantH := best3Sorted(q, x, y, z)
			gx, gy, gz := guarded[float64](t, n, atEnd), guarded[float64](t, n, atEnd), guarded[float64](t, n, atEnd)
			copy(gx, x)
			copy(gy, y)
			copy(gz, z)
			dist, hit := guarded[float64](t, n, atEnd), guarded[int32](t, (n+3)&^3, atEnd)
			third, hits := best3AVX2(&q, &gx[0], &gy[0], &gz[0], n, &dist[0], &hit[0])
			if !sameBits(dist, wantD) || third != wantT || !reflect.DeepEqual(append([]int32{}, hit[:hits]...), wantH) {
				t.Fatalf("n=%d between guard pages (at end %v): third %v, hits %v; want %v, %v", n, atEnd, third, hit[:hits], wantT, wantH)
			}
		}
	}
}
