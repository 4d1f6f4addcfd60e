package tensor

import (
	"fmt"
	"sync"

	"repro/internal/parallel"
)

// This file holds the *Into variants of the allocating kernels: each writes
// into a caller-provided destination (typically a Workspace buffer) after
// shape-checking it, so a steady-state inference frame performs no heap
// allocation. The allocating functions in tensor.go are thin wrappers that
// allocate the destination and delegate here.
//
// Destinations must not alias any input; the kernels reject the
// cheap-to-detect case (shared backing array start), which is the only way a
// Workspace can hand out an alias.

// sameBacking reports whether two slices share the same backing array start —
// the aliasing pattern a Workspace Get/Put misuse produces.
func sameBacking(a, b []float32) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// checkDst validates the destination shape for op.
func checkDst(op string, out *Matrix, rows, cols int) error {
	if out.Rows != rows || out.Cols != cols {
		return fmt.Errorf("tensor: %s destination is %dx%d, need %dx%d", op, out.Rows, out.Cols, rows, cols)
	}
	return nil
}

// checkMatMul validates shapes and aliasing for out = a·b + bias (a nil bias
// adds nothing); shared by every backend's MatMul kernel so the validation
// contract cannot drift.
func checkMatMul(out, a, b *Matrix, bias []float32) error {
	if a.Cols != b.Rows {
		return fmt.Errorf("tensor: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if err := checkDst("matmul", out, a.Rows, b.Cols); err != nil {
		return err
	}
	if bias != nil && len(bias) != out.Cols {
		return fmt.Errorf("tensor: bias length %d for %d columns", len(bias), out.Cols)
	}
	if sameBacking(out.Data, a.Data) || sameBacking(out.Data, b.Data) {
		return fmt.Errorf("tensor: matmul destination aliases an input")
	}
	return nil
}

// minMatMulWork is the fewest multiply-adds one goroutine of a row-split a·b
// takes when the kernel is a Go loop, minMatMulRows the fewest rows. Measured
// on the 2-core reference host with the blocked Go kernel (≈2.5 multiply-adds
// per ns): a two-way split breaks even between 65 k and 260 k multiply-adds in
// all, depending on how the host is loaded, and wins 1.4–1.9× from 500 k; W1's
// smallest layer has 1.5 M.
const (
	minMatMulWork = 1 << 16
	minMatMulRows = 8
)

// matMulWorkers sizes the row split of an a·b kernel by its multiply-adds,
// grain of them to a goroutine: row count alone (parallel.Workers) leaves a
// 1024×35·35×64 layer on one core. A row partition never changes numerics.
func matMulWorkers(rows, k, cols, grain int) int {
	return min(parallel.WorkersFor(rows*k*cols, grain), max(1, rows/minMatMulRows))
}

// MatMulInto computes a·b into out (a.Rows × b.Cols), overwriting its
// contents. Same ikj loop order as MatMul, parallelized over blocks of a's
// rows, so results are bit-identical to the allocating version.
func MatMulInto(out, a, b *Matrix) error { return MatMulBiasInto(out, a, b, nil) }

// MatMulBiasInto is MatMulInto with bias[j] added to column j as each row is
// stored: one float32 add after the row's last accumulation, so the bits are
// those of MatMulInto followed by AddBiasRows, without the second sweep.
func MatMulBiasInto(out, a, b *Matrix, bias []float32) error {
	if err := checkMatMul(out, a, b, bias); err != nil {
		return err
	}
	if workers := matMulWorkers(a.Rows, a.Cols, b.Cols, minMatMulWork); workers > 1 {
		parallel.ForSplit(a.Rows, workers, func(lo, hi int) { matMulRows(out, a, b, bias, lo, hi) })
	} else {
		matMulRows(out, a, b, bias, 0, a.Rows)
	}
	return nil
}

// matMulRows runs the reference ikj kernel over out rows [lo, hi).
func matMulRows(out, a, b *Matrix, bias []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		ar := a.Row(i)
		or := out.Row(i)
		for j := range or {
			or[j] = 0
		}
		// No zero skip: 0·Inf is NaN here as in every other kernel.
		for k, av := range ar {
			br := b.Row(k)
			for j, bv := range br {
				or[j] += float32(av * bv)
			}
		}
		for j, bv := range bias {
			or[j] += bv
		}
	}
}

// MatMulBTInto computes a·bᵀ into out (a: m×k, b: n×k → m×n), overwriting
// its contents: each cell a dot product summed from +0 with k ascending. With
// AVX2 it is blocked's a·b against a transposed copy of b, which sums every
// cell in that order (b is a layer's weights in backprop, at most 256 × 256);
// elsewhere the Go loop below, the oracle the vector path is tested against.
// Rows are split like blocked's, which never changes numerics.
func MatMulBTInto(out, a, b *Matrix) error {
	if a.Cols != b.Cols {
		return fmt.Errorf("tensor: matmulBT shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if err := checkDst("matmulBT", out, a.Rows, b.Rows); err != nil {
		return err
	}
	if sameBacking(out.Data, a.Data) || sameBacking(out.Data, b.Data) {
		return fmt.Errorf("tensor: matmulBT destination aliases an input")
	}
	if hasAVX2 {
		bt := transposed(b)
		if workers := matMulWorkers(a.Rows, a.Cols, b.Rows, blockedMinWork); workers > 1 {
			parallel.ForSplit(a.Rows, workers, func(lo, hi int) { blockedMatMulRows(out, a, bt, nil, lo, hi) })
		} else {
			blockedMatMulRows(out, a, bt, nil, 0, a.Rows)
		}
		btPool.Put(bt)
		return nil
	}
	parallel.ForChunks(a.Rows, func(lo, hi int) { matMulBTRows(out, a, b, lo, hi) })
	return nil
}

// matMulBTRows runs the reference a·bᵀ kernel over out rows [lo, hi).
func matMulBTRows(out, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		ar := a.Row(i)
		or := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			br := b.Row(j)
			var sum float32
			for k, av := range ar {
				sum += float32(av * br[k])
			}
			or[j] = sum
		}
	}
}

// btPool recycles MatMulBTInto's transposed copies: one per backward
// product, the same few weight shapes every step.
var btPool = sync.Pool{New: func() any { return new(Matrix) }}

// transposed returns bᵀ in a pooled matrix the caller puts back.
func transposed(b *Matrix) *Matrix {
	t := btPool.Get().(*Matrix)
	if cap(t.Data) < len(b.Data) {
		t.Data = make([]float32, len(b.Data))
	}
	t.Rows, t.Cols, t.Data = b.Cols, b.Rows, t.Data[:len(b.Data)]
	for j := 0; j < b.Rows; j++ {
		for k, v := range b.Row(j) {
			t.Data[k*b.Rows+j] = v
		}
	}
	return t
}

// MatMulATInto computes aᵀ·b into out (a: k×m, b: k×n → m×n), overwriting
// its contents. The output rows — the columns of a — are partitioned across
// goroutines, four at a time, and every goroutine walks the whole shared k
// dimension in index order, so no two goroutines write the same cell and each
// cell's float32 summation order is the serial one on any core count: trained
// weights are a function of the inputs, not of GOMAXPROCS. The fan-out is
// sized by multiply-adds, as blocked's is, and never gives a goroutine fewer
// than minATCols output rows.
func MatMulATInto(out, a, b *Matrix) error {
	if a.Rows != b.Rows {
		return fmt.Errorf("tensor: matmulAT shape mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if err := checkDst("matmulAT", out, a.Cols, b.Cols); err != nil {
		return err
	}
	if sameBacking(out.Data, a.Data) || sameBacking(out.Data, b.Data) {
		return fmt.Errorf("tensor: matmulAT destination aliases an input")
	}
	out.Zero()
	m := a.Cols
	if workers := min(parallel.WorkersFor(a.Rows*m*b.Cols, blockedMinWork), m/minATCols); workers > 1 {
		parallel.ForSplit((m+3)/4, workers, func(lo, hi int) { matMulATRows(out, a, b, 4*lo, min(4*hi, m)) })
	} else {
		matMulATRows(out, a, b, 0, m)
	}
	return nil
}

// minATCols is the fewest columns of a (output rows) one MatMulATInto
// goroutine takes: below it the per-k row slicing costs more than the split
// saves.
const minATCols = 8

// matMulATRows adds aᵀ·b to out rows [lo, hi). With AVX2 the vector kernel
// takes the rows up to a multiple of 4 and the columns up to a multiple of 8;
// the ragged edges, and every other host, run matMulATAccum, the reference
// the vector code is tested against.
func matMulATRows(out, a, b *Matrix, lo, hi int) {
	if vn := b.Cols &^ 7; hasAVX2 && vn > 0 && hi-lo >= 4 && a.Rows > 0 {
		vhi := lo + (hi-lo)&^3
		gemmATAVX2(out, a, b, lo, vhi, vn)
		matMulATAccum(out, a, b, lo, vhi, vn, b.Cols)
		lo = vhi
	}
	matMulATAccum(out, a, b, lo, hi, 0, b.Cols)
}

// matMulATAccum adds aᵀ·b restricted to columns [lo, hi) of a — output rows
// [lo, hi) — and columns [jlo, jhi) of b into dst, walking the shared
// dimension in index order. Every row is cut to the same length up front,
// which keeps bounds checks out of the inner loop (indexing dst.Row(lo+i)
// there costs 40% on 8192×32). No zero skip: 0·Inf is NaN here as in every
// other kernel.
func matMulATAccum(dst, a, b *Matrix, lo, hi, jlo, jhi int) {
	if lo >= hi || jlo >= jhi {
		return
	}
	n, w := dst.Cols, jhi-jlo
	for k := 0; k < a.Rows; k++ {
		ar := a.Row(k)[lo:hi]
		br := b.Row(k)[jlo:jhi]
		for i, av := range ar {
			dr := dst.Data[(lo+i)*n+jlo:][:w]
			for j, bv := range br {
				dr[j] += float32(av * bv)
			}
		}
	}
}

// GatherInto copies src row idx[j] into out row j for every j, overwriting
// out. Indexes are validated up front so the parallel copy never faults.
func GatherInto(out, src *Matrix, idx []int) error {
	if err := checkDst("gather", out, len(idx), src.Cols); err != nil {
		return err
	}
	if sameBacking(out.Data, src.Data) {
		return fmt.Errorf("tensor: gather destination aliases the source")
	}
	for _, i := range idx {
		if i < 0 || i >= src.Rows {
			return fmt.Errorf("tensor: gather index %d out of %d rows", i, src.Rows)
		}
	}
	parallel.ForChunks(len(idx), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			copy(out.Row(j), src.Row(idx[j]))
		}
	})
	return nil
}

// ConcatInto writes the column-wise concatenation [a | b] into out,
// overwriting it; a and b must have the same row count.
func ConcatInto(out, a, b *Matrix) error {
	if a.Rows != b.Rows {
		return fmt.Errorf("tensor: concat row mismatch %d vs %d", a.Rows, b.Rows)
	}
	if err := checkDst("concat", out, a.Rows, a.Cols+b.Cols); err != nil {
		return err
	}
	if sameBacking(out.Data, a.Data) || sameBacking(out.Data, b.Data) {
		return fmt.Errorf("tensor: concat destination aliases an input")
	}
	parallel.ForChunks(a.Rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			or := out.Row(r)
			copy(or[:a.Cols], a.Row(r))
			copy(or[a.Cols:], b.Row(r))
		}
	})
	return nil
}

// MaxPoolGroupsInto reduces the (n·k × C) grouped matrix into out (n × C) by
// per-channel maximum over each group of k consecutive rows, overwriting out.
// argmax, when non-nil (len n·C), records which grouped row supplied each
// maximum; pass nil on the inference path, where no backward pass will ever
// consume it.
func MaxPoolGroupsInto(out *Matrix, argmax []int32, grouped *Matrix, k int) error {
	if k <= 0 || grouped.Rows%k != 0 {
		return fmt.Errorf("tensor: cannot pool %d rows in groups of %d", grouped.Rows, k)
	}
	n := grouped.Rows / k
	if err := checkDst("maxpool", out, n, grouped.Cols); err != nil {
		return err
	}
	if sameBacking(out.Data, grouped.Data) {
		return fmt.Errorf("tensor: maxpool destination aliases the input")
	}
	if argmax != nil && len(argmax) != n*grouped.Cols {
		return fmt.Errorf("tensor: maxpool argmax length %d for %dx%d output", len(argmax), n, grouped.Cols)
	}
	// The closure is built only for a split: on one core it would be an
	// allocation per call for nothing.
	if w := parallel.Workers(n); w > 1 {
		parallel.ForSplit(n, w, func(lo, hi int) { maxPoolRows(out, argmax, grouped, k, lo, hi) })
	} else {
		maxPoolRows(out, argmax, grouped, k, 0, n)
	}
	return nil
}

// maxPoolRows pools groups [lo, hi), recording the argmax when it is non-nil.
// There, with AVX2, the vector kernel takes the columns up to a multiple of
// 8; the ragged ones, and every other host, run maxPoolArgCols, the loop the
// vector code is tested against.
func maxPoolRows(out *Matrix, argmax []int32, grouped *Matrix, k, lo, hi int) {
	if argmax != nil {
		vc := 0
		if hasAVX2 && grouped.Cols >= 8 {
			vc = grouped.Cols &^ 7
			maxPoolArgAVX2(out, argmax, grouped, k, lo, hi, vc)
		}
		maxPoolArgCols(out, argmax, grouped, k, lo, hi, vc, grouped.Cols)
		return
	}
	for g := lo; g < hi; g++ {
		or := out.Row(g)
		copy(or, grouped.Row(g*k))
		for j := 1; j < k; j++ {
			for c, v := range grouped.Row(g*k + j) {
				if v > or[c] {
					or[c] = v
				}
			}
		}
	}
}

// maxPoolArgCols pools columns [jlo, jhi) of groups [lo, hi): a group's first
// row seeds each maximum and a later one replaces it only when strictly
// greater, so a tie keeps the lowest row and a NaN neither replaces a maximum
// nor is replaced.
func maxPoolArgCols(out *Matrix, argmax []int32, grouped *Matrix, k, lo, hi, jlo, jhi int) {
	if jlo >= jhi {
		return
	}
	c, w := grouped.Cols, jhi-jlo
	for g := lo; g < hi; g++ {
		or, am := out.Data[g*c+jlo:][:w], argmax[g*c+jlo:][:w]
		copy(or, grouped.Data[g*k*c+jlo:][:w])
		for i := range am {
			am[i] = int32(g * k)
		}
		for j := 1; j < k; j++ {
			for i, v := range grouped.Data[(g*k+j)*c+jlo:][:w] {
				if v > or[i] {
					or[i] = v
					am[i] = int32(g*k + j)
				}
			}
		}
	}
}

// MaxPoolBackwardInto routes grad (n × C) back into out (n·k × C) through the
// argmax MaxPoolGroupsInto recorded, overwriting out: each routed cell is
// +0 + its gradient, every other cell +0.
func MaxPoolBackwardInto(out, grad *Matrix, argmax []int32, k int) error {
	if len(argmax) != grad.Rows*grad.Cols {
		return fmt.Errorf("tensor: argmax length %d for %dx%d grad", len(argmax), grad.Rows, grad.Cols)
	}
	if err := checkDst("maxpool backward", out, grad.Rows*k, grad.Cols); err != nil {
		return err
	}
	if sameBacking(out.Data, grad.Data) {
		return fmt.Errorf("tensor: maxpool backward destination aliases the gradient")
	}
	out.Zero()
	for g := 0; g < grad.Rows; g++ {
		am := argmax[g*grad.Cols : (g+1)*grad.Cols]
		for c, v := range grad.Row(g) {
			out.Data[int(am[c])*grad.Cols+c] += v
		}
	}
	return nil
}

// ColMaxInto writes m's per-column maxima into vals and, when argmax is
// non-nil, the row each came from into argmax: row 0 seeds them and a later
// row replaces one only when strictly greater. vals and argmax have m.Cols
// elements, and m has at least one row.
func ColMaxInto(vals []float32, argmax []int32, m *Matrix) {
	copy(vals, m.Row(0))
	clear(argmax)
	for r := 1; r < m.Rows; r++ {
		for c, v := range m.Row(r) {
			if v > vals[c] {
				vals[c] = v
				if argmax != nil {
					argmax[c] = int32(r)
				}
			}
		}
	}
}
