package tensor

import (
	"errors"
	"fmt"
	"math/bits"
)

// Workspace is a size-bucketed free list of matrices for the inference hot
// path. Repeated-frame inference allocates the same activation shapes every
// frame; a Workspace lets frame N+1 reuse frame N's buffers so the
// steady-state forward pass performs no heap allocation and no GC work.
//
// Ownership rules (see DESIGN.md "Memory model and buffer reuse"):
//
//   - Get hands out a matrix with *unspecified contents*; every kernel that
//     writes into one must overwrite it fully (the *Into kernels do).
//   - Put may be called at most once per Get, by the code that knows the
//     buffer is dead; a second Put, a Put of a foreign matrix, or a Put
//     after Reset panics — all three are aliasing bugs in the making.
//   - Reset reclaims every outstanding buffer at once. It is called by the
//     frame driver at the start of each frame, so a workspace matrix has a
//     lifetime of at most one frame. Anything that must outlive the frame
//     (e.g. returned logits) must be cloned out first.
//
// A Workspace is not safe for concurrent use; each net owns one and calls
// Get/Put only from the single-goroutine top level of its forward pass (the
// kernels parallelize internally, below the workspace).
type Workspace struct {
	free   map[int][]*Matrix // recycled matrices, keyed by backing capacity
	lent   map[*Matrix]int   // outstanding matrices → their bucket
	gets   uint64
	misses uint64
}

// NewWorkspace creates an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{
		free: make(map[int][]*Matrix),
		lent: make(map[*Matrix]int),
	}
}

// bucketFor rounds a length up to the next power of two, the free-list
// granularity. Bucketing trades ≤2× slack per buffer for reuse across the
// slightly different shapes consecutive frames produce.
func bucketFor(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Get returns a rows×cols matrix backed by a recycled buffer when one of
// sufficient capacity is free, allocating otherwise. Contents are
// unspecified — the caller must fully overwrite them.
func (w *Workspace) Get(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: workspace Get %dx%d", rows, cols))
	}
	need := rows * cols
	b := bucketFor(need)
	w.gets++
	var m *Matrix
	if list := w.free[b]; len(list) > 0 {
		m = list[len(list)-1]
		list[len(list)-1] = nil
		w.free[b] = list[:len(list)-1]
		m.Rows, m.Cols = rows, cols
		m.Data = m.Data[:need] // cap is the bucket size, ≥ need
	} else {
		w.misses++
		m = &Matrix{Rows: rows, Cols: cols, Data: make([]float32, need, b)}
	}
	w.lent[m] = b
	return m
}

// Put returns a matrix obtained from Get to the free list. The caller must
// not touch the matrix afterwards: its backing array will be handed out by a
// later Get. Putting a matrix the workspace does not currently lend (double
// Put, foreign matrix, or Put after Reset) panics — silently accepting any
// of those would alias two live tensors.
func (w *Workspace) Put(m *Matrix) {
	b, ok := w.lent[m]
	if !ok {
		panic(errPut)
	}
	delete(w.lent, m)
	w.free[b] = append(w.free[b], m)
}

// errPut is Put's panic value, built once: Put is inlined into every
// hot-path function that recycles a buffer, and a string converted at the
// panic site shows up in each of them as a heap escape the gate must carry.
var errPut = errors.New("tensor: workspace Put of a matrix it does not lend (double Put, foreign matrix, or Put after Reset)")

// Owns reports whether m is currently lent out by this workspace. Callers
// with conditional ownership (a layer that may return its input unchanged)
// use it to guard Put.
func (w *Workspace) Owns(m *Matrix) bool {
	_, ok := w.lent[m]
	return ok
}

// Reset reclaims every outstanding matrix. All buffers handed out since the
// last Reset become invalid; the frame driver calls this at the start of
// each frame.
func (w *Workspace) Reset() {
	for m, b := range w.lent {
		delete(w.lent, m)
		w.free[b] = append(w.free[b], m)
	}
}

// WorkspaceStats is a snapshot of workspace traffic, used by the
// allocation-regression tests: a warm steady-state frame increments Gets but
// not Misses.
type WorkspaceStats struct {
	Gets   uint64 // total Get calls
	Misses uint64 // Gets that had to allocate
	Lent   int    // matrices currently outstanding
	Free   int    // matrices currently in free lists
}

// Stats returns a snapshot of workspace traffic.
func (w *Workspace) Stats() WorkspaceStats {
	free := 0
	for _, list := range w.free {
		free += len(list)
	}
	return WorkspaceStats{Gets: w.gets, Misses: w.misses, Lent: len(w.lent), Free: free}
}
