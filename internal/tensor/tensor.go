// Package tensor provides the minimal float32 linear algebra the point-cloud
// networks need: row-major matrices, blocked matrix multiplication, row
// gather/scatter (the grouping stage), and neighbor-axis max pooling.
//
// Convention: a matrix of shape (rows, cols) holds one *point* per row and
// one *channel* per column. Grouped neighbor features are stored as
// (n·k, C) matrices in query-major order, the same layout the paper's
// grouping stage materializes on the GPU.
package tensor

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/parallel"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New allocates a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (len rows*cols) as a matrix without copying.
func FromSlice(rows, cols int, data []float32) (*Matrix, error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("tensor: %d values cannot form %d×%d", len(data), rows, cols)
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}, nil
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns row r as a sub-slice (not a copy).
func (m *Matrix) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Int32s views m's storage as len(m.Data) int32 values: a workspace buffer
// lent as an index array (a max-pool's argmax in training). The two views
// share memory, and a buffer holds one kind of value at a time.
func (m *Matrix) Int32s() []int32 {
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(m.Data))), len(m.Data))
}

// Zero sets all elements to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Equal reports exact element-wise equality of shapes and values.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		//edgepc:lint-ignore floateq Equal is the bit-identity primitive the golden tests are built on
		if v != o.Data[i] {
			return false
		}
	}
	return true
}

// MatMul computes a·b into a newly allocated (a.Rows × b.Cols) matrix using
// an ikj loop order (streaming through b's rows) parallelized over blocks of
// a's rows.
func MatMul(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("tensor: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := New(a.Rows, b.Cols)
	if err := MatMulInto(out, a, b); err != nil {
		return nil, err
	}
	return out, nil
}

// MatMulBT computes a·bᵀ (a: m×k, b: n×k → m×n). Used in backprop.
func MatMulBT(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Cols {
		return nil, fmt.Errorf("tensor: matmulBT shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := New(a.Rows, b.Rows)
	if err := MatMulBTInto(out, a, b); err != nil {
		return nil, err
	}
	return out, nil
}

// MatMulAT computes aᵀ·b (a: k×m, b: k×n → m×n). Used for weight gradients.
// The output rows are split across workers (see MatMulATInto).
func MatMulAT(a, b *Matrix) (*Matrix, error) {
	if a.Rows != b.Rows {
		return nil, fmt.Errorf("tensor: matmulAT shape mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := New(a.Cols, b.Cols)
	if err := MatMulATInto(out, a, b); err != nil {
		return nil, err
	}
	return out, nil
}

// AddBiasRows adds bias (len = m.Cols) to every row of m in place.
func AddBiasRows(m *Matrix, bias []float32) error {
	if len(bias) != m.Cols {
		return fmt.Errorf("tensor: bias length %d for %d columns", len(bias), m.Cols)
	}
	parallel.ForChunks(m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			for j := range row {
				row[j] += bias[j]
			}
		}
	})
	return nil
}

// Gather builds a (len(idx) × src.Cols) matrix whose row j is src row idx[j].
// This is the pipeline's grouping primitive. Row copies are parallelized
// (every row is independent); see GatherInto.
func Gather(src *Matrix, idx []int) (*Matrix, error) {
	out := New(len(idx), src.Cols)
	if err := GatherInto(out, src, idx); err != nil {
		return nil, err
	}
	return out, nil
}

// ScatterAdd adds each row j of src into dst row idx[j] (the adjoint of
// Gather, used to backprop through grouping).
func ScatterAdd(dst, src *Matrix, idx []int) error {
	if src.Rows != len(idx) || src.Cols != dst.Cols {
		return fmt.Errorf("tensor: scatter shape mismatch src %dx%d, dst %dx%d, %d indexes",
			src.Rows, src.Cols, dst.Rows, dst.Cols, len(idx))
	}
	for j, i := range idx {
		if i < 0 || i >= dst.Rows {
			return fmt.Errorf("tensor: scatter index %d out of %d rows", i, dst.Rows)
		}
		dr := dst.Row(i)
		for c, v := range src.Row(j) {
			dr[c] += v
		}
	}
	return nil
}

// MaxPoolGroups reduces a (n·k × C) grouped matrix to (n × C) by taking the
// per-channel maximum over each group of k consecutive rows. argmax records,
// for each output element, which grouped row supplied the max (for backprop).
func MaxPoolGroups(grouped *Matrix, k int) (out *Matrix, argmax []int32, err error) {
	if k <= 0 || grouped.Rows%k != 0 {
		return nil, nil, fmt.Errorf("tensor: cannot pool %d rows in groups of %d", grouped.Rows, k)
	}
	n := grouped.Rows / k
	out = New(n, grouped.Cols)
	argmax = make([]int32, n*grouped.Cols)
	if err := MaxPoolGroupsInto(out, argmax, grouped, k); err != nil {
		return nil, nil, err
	}
	return out, argmax, nil
}

// MaxPoolBackward routes grad (n × C) back to a (n·k × C) grouped gradient
// using the argmax produced by MaxPoolGroups; see MaxPoolBackwardInto.
func MaxPoolBackward(grad *Matrix, argmax []int32, k int) (*Matrix, error) {
	out := New(grad.Rows*k, grad.Cols)
	if err := MaxPoolBackwardInto(out, grad, argmax, k); err != nil {
		return nil, err
	}
	return out, nil
}

// ColMax reduces the matrix to a single row of per-column maxima with argmax
// rows (global max pooling, the PointNet classifier readout); see ColMaxInto.
func ColMax(m *Matrix) (vals []float32, argmax []int32) {
	vals = make([]float32, m.Cols)
	argmax = make([]int32, m.Cols)
	ColMaxInto(vals, argmax, m)
	return vals, argmax
}

// LogSoftmaxRows applies a numerically stable log-softmax to every row in
// place.
func LogSoftmaxRows(m *Matrix) {
	parallel.ForChunks(m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			maxV := row[0]
			for _, v := range row[1:] {
				if v > maxV {
					maxV = v
				}
			}
			var sum float64
			for _, v := range row {
				sum += math.Exp(float64(v - maxV))
			}
			logSum := float32(math.Log(sum)) + maxV
			for j := range row {
				row[j] -= logSum
			}
		}
	})
}

// Concat returns the column-wise concatenation [a | b]; both must have the
// same row count. Row copies are parallelized; see ConcatInto.
func Concat(a, b *Matrix) (*Matrix, error) {
	if a.Rows != b.Rows {
		return nil, fmt.Errorf("tensor: concat row mismatch %d vs %d", a.Rows, b.Rows)
	}
	out := New(a.Rows, a.Cols+b.Cols)
	if err := ConcatInto(out, a, b); err != nil {
		return nil, err
	}
	return out, nil
}

// SplitCols splits m into left (cols [0,at)) and right (cols [at,Cols))
// copies.
func SplitCols(m *Matrix, at int) (left, right *Matrix, err error) {
	if at < 0 || at > m.Cols {
		return nil, nil, fmt.Errorf("tensor: split at %d of %d cols", at, m.Cols)
	}
	left = New(m.Rows, at)
	right = New(m.Rows, m.Cols-at)
	for r := 0; r < m.Rows; r++ {
		copy(left.Row(r), m.Row(r)[:at])
		copy(right.Row(r), m.Row(r)[at:])
	}
	return left, right, nil
}
