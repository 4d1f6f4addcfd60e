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

// TestVectorBackwardStaysInsideItsOperands runs BatchNorm.Backward's two
// passes and Linear.Backward's two adds with every operand — input, incoming
// gradient, output, statistics, γ, β and the sums — flush against an unmapped
// page, at its end and then at its start, and requires the Go loops' bits:
// widths with and without a ragged strip, rows across both passes' call
// bounds.
func TestVectorBackwardStaysInsideItsOperands(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this host: the backward passes run the Go loops")
	}
	defer func() { useAVX2 = true }()
	rng := rand.New(rand.NewSource(47))
	for _, s := range []struct{ rows, c int }{{1, 8}, {2, 9}, {7, 16}, {1030, 17}, {4100, 24}, {1030, 64}} {
		bn := edgeBatchNorm(rng, s.c)
		x := edgeActivation(rng, s.rows, s.c, false)
		bn.forwardBatch(tensor.New(s.rows, s.c), x, true, true)
		g := edgeGrad(rng, s.rows, s.c, true)
		passes := func(x, g, dst *tensor.Matrix, p *gradParams) {
			bn.gradSums(x, g, p, 0, s.c)
			for j := range p.scale {
				p.scale[j] = p.gamma[j] * p.invStd[j] / p.n
			}
			bn.gradApply(dst, x, g, p, 0, s.rows)
		}
		params := func(slice func([]float32) []float32) *gradParams {
			c := s.c
			return &gradParams{
				mean: slice(bn.stats[:c]), invStd: slice(bn.stats[c : 2*c]),
				gamma: slice(bn.Gamma.Value.Data), beta: slice(bn.Beta.Value.Data),
				sumG: slice(make([]float32, c)), sumGH: slice(make([]float32, c)), scale: slice(make([]float32, c)),
				n: float32(s.rows),
			}
		}
		useAVX2 = false
		want, wantP := tensor.New(s.rows, s.c), params(func(v []float32) []float32 { return v })
		passes(x, g, want, wantP)
		wantBias, wantAdd := tensor.New(1, s.c), edgeGrad(rng, 1, s.c, false)
		addColSums(wantBias.Data, g)
		addend := edgeGrad(rng, 1, s.c, true)
		sum := wantAdd.Clone()
		addInto(wantAdd.Data, addend.Data)
		useAVX2 = true
		for _, atEnd := range []bool{true, false} {
			what := fmt.Sprintf("%d×%d, at end %v", s.rows, s.c, atEnd)
			place := func(src *tensor.Matrix) *tensor.Matrix {
				m := guarded(t, src.Rows, src.Cols, atEnd)
				copy(m.Data, src.Data)
				return m
			}
			p := params(func(v []float32) []float32 { return place(&tensor.Matrix{Rows: 1, Cols: len(v), Data: v}).Data })
			got := guarded(t, s.rows, s.c, atEnd)
			passes(place(x), place(g), got, p)
			requireSameBits(t, what+", input gradient", got, want)
			bias := place(tensor.New(1, s.c))
			addColSums(bias.Data, place(g))
			requireSameBits(t, what+", bias gradient", bias, wantBias)
			acc := place(sum)
			addInto(acc.Data, place(addend).Data)
			requireSameBits(t, what+", dW add", acc, wantAdd)
		}
	}
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
