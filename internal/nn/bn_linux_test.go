package nn

import (
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/tensor"
)

// guarded returns a rows×cols matrix whose last byte (atEnd) or first byte is
// the one next to a PROT_NONE page: a sweep that touches one element past
// that edge faults, which neither bounds checks nor the race detector can see
// inside assembly.
func guarded(t *testing.T, rows, cols int, atEnd bool) *tensor.Matrix {
	t.Helper()
	page, n := syscall.Getpagesize(), rows*cols
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
	return &tensor.Matrix{Rows: rows, Cols: cols, Data: unsafe.Slice((*float32)(unsafe.Pointer(&mem[off])), n)}
}

// TestVectorSweepsMatchGoLoopsInsideTheirBuffers runs BatchNorm.normalize
// with the AVX2 sweeps, input and output each flush against an unmapped page,
// and requires the bits of the Go loops — the same functions with the probe's
// answer overridden — over widths with every strip remainder, pooled and
// not, rectified and not, in place and not, at one and four cores (16400 rows
// of 33 columns or more are past minSweepElems: both sweeps fan out).
func TestVectorSweepsMatchGoLoopsInsideTheirBuffers(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this host: BatchNorm runs the Go loops the vector sweeps are compared with")
	}
	defer func() { useAVX2 = true }()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(44))
	for _, c := range []int{7, 8, 9, 15, 16, 17, 24, 31, 33, 40, 64, 67} {
		layers := oddTriple(rng, "t", 6, c)
		lin, bn := layers[0].(*Linear), layers[1].(*BatchNorm)
		bn.SetWorkspace(tensor.NewWorkspace())
		for _, rows := range []int{0, 2, 8, 24, 16400} {
			y, err := lin.Forward(oddInput(rng, rows, 6, c%2 == 1), false)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 8, max(rows, 1)} {
				if rows%k != 0 {
					continue
				}
				for _, relu := range []bool{true, false} {
					useAVX2 = false
					want := tensor.New(rows/k, c)
					bn.normalize(want, y, relu, k)
					useAVX2 = true
					for _, procs := range []int{1, 4} {
						runtime.GOMAXPROCS(procs)
						for _, atEnd := range []bool{true, false} {
							what := fmt.Sprintf("%d×%d, k=%d, relu %v, GOMAXPROCS %d, at end %v", rows, c, k, relu, procs, atEnd)
							x := guarded(t, rows, c, atEnd)
							copy(x.Data, y.Data)
							got := guarded(t, rows/k, c, atEnd)
							bn.normalize(got, x, relu, k)
							requireSameBits(t, what, got, want)
							if k == 1 {
								bn.normalize(x, x, relu, 1)
								requireSameBits(t, what+", in place", x, want)
							}
						}
					}
				}
			}
		}
	}
}
