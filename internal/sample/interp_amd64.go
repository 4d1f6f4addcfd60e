package sample

// applyPlan3 is ApplyPlan's AVX2 kernel for plans of three sources
// (interp_amd64.s): for each of targets rows, dst row t (stride ld) gets
// ((0 + w0·r0) + w1·r1) + w2·r2 over its featDim columns, eight at a time
// and the last ragged block under a mask, with r the src rows (featDim
// wide) the plan's idx names and w its weights. The Go glue checks every
// index.
//
//go:noescape
func applyPlan3(dst *float32, ld int, src *float32, featDim int, idx *int32, w *float32, targets int)
