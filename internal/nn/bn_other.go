//go:build !amd64

package nn

import "repro/internal/tensor"

// Only amd64 has vector kernels; tensor.HasAVX2 is false here and BatchNorm
// never calls these.

func colSumsAVX2(sum, mean []float32, x *tensor.Matrix, b int) {}

func applyAVX2(dst, x *tensor.Matrix, gamma, beta, mean, invStd []float32, relu bool, k, lo, hi, cols int) {
}
