package tensor

//go:noescape
func maxPoolArg8(out *float32, argmax *int32, grouped *float32, groups, k, cols, stride, row0 int)

// poolBlock bounds one maxPoolArg8 call to about this many elements of the
// grouped matrix: assembly is not asynchronously preemptible, and the garbage
// collector and serve's watchdog wait on it.
const poolBlock = 1 << 16

// maxPoolArgAVX2 is maxPoolArgCols over columns [0, cols) of groups [lo, hi),
// cols a multiple of 8 and at least 8: a lane is a column.
//
//edgepc:hotpath
func maxPoolArgAVX2(out *Matrix, argmax []int32, grouped *Matrix, k, lo, hi, cols int) {
	c := grouped.Cols
	if lo >= hi {
		return
	}
	// The assembly checks no bound; these do, for the last address it touches.
	_, _, _ = out.Data[hi*c-1], argmax[hi*c-1], grouped.Data[hi*k*c-1]
	step := max(1, poolBlock/(k*c))
	for g := lo; g < hi; g += step {
		maxPoolArg8(&out.Data[g*c], &argmax[g*c], &grouped.Data[g*k*c], min(step, hi-g), k, cols, c, g*k)
	}
}
