//go:build !amd64

package sample

// Only amd64 has vector kernels: tensor.HasAVX2 is false here, so ApplyPlan
// always runs applyPlanGo and never calls this.

func applyPlan3(dst *float32, ld int, src *float32, featDim int, idx *int32, w *float32, targets int) {
	panic("sample: vector kernel called without AVX2")
}
