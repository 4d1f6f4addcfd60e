//go:build !amd64

package nn

import "repro/internal/tensor"

// Only amd64 has vector kernels; tensor.HasAVX2 is false here and BatchNorm
// and Linear never call these.

func colSumsAVX2(sum, mean []float32, x *tensor.Matrix, b int) {}

func applyAVX2(dst, x *tensor.Matrix, gamma, beta, mean, invStd []float32, relu bool, k, lo, hi, cols int) {
}

func gradSumsAVX2(sumG, sumGH []float32, x, g *tensor.Matrix, mean, invStd, gamma, beta []float32, b int, relu bool) {
}

func gradApplyAVX2(dst, x, g *tensor.Matrix, p *gradParams, relu bool, lo, hi, cols int) {}

func addAVX2(dst, src []float32) {}
