//go:build !amd64

package tensor

// Only amd64 has vector kernels: everywhere else blocked and the argmax pool
// are their Go loops.
const hasAVX2 = false

func gemmAVX2(out, a, b *Matrix, bias []float32, lo, hi, n int) {}

func gemmATAVX2(out, a, b *Matrix, lo, hi, n int) {}

func maxPoolArgAVX2(out *Matrix, argmax []int32, grouped *Matrix, k, lo, hi, cols int) {}
