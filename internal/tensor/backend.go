package tensor

import (
	"fmt"
	"strings"
)

// Backend is one implementation of the destination-writing GEMM and concat
// kernels, named so bench/ can time each by name (its tensor.matmul.*_ms
// rows). Every layer above this package calls blocked's kernels directly;
// the other two are kept for those probes: naive runs the package-level
// reference loops — the oracle the tests hold blocked to, bit for bit — and
// int8 runs the quantized kernel. Every implementation honors the contracts
// of the package-level reference functions: identical shape/alias
// validation, destinations fully overwritten, and no retained references to
// caller buffers after the call returns (int8 caches per-weight codes, keyed
// on the weight matrix).
//
// Concurrency: naive and blocked are stateless and safe to share; int8 keeps
// per-instance scratch, so NewBackend returns a fresh one per call.
type Backend interface {
	Name() string
	MatMulInto(out, a, b *Matrix) error
	ConcatInto(out, a, b *Matrix) error
	// MatMulBiasInto is MatMulInto with bias[j] added to column j as each
	// row is stored. The add is an exact float32 one in every backend (int8
	// adds after it dequantizes).
	MatMulBiasInto(out, a, b *Matrix, bias []float32) error
}

// Backend names.
const (
	BackendNaive   = "naive"
	BackendBlocked = "blocked"
	BackendInt8    = "int8"
)

// NewBackend constructs an instance of the named backend. Unknown names
// produce an error listing the three.
func NewBackend(name string) (Backend, error) {
	switch name {
	case BackendNaive:
		return Naive(), nil
	case BackendBlocked:
		return Blocked(), nil
	case BackendInt8:
		return NewInt8(), nil
	}
	return nil, fmt.Errorf("tensor: no backend registered for %q (registered: %s)", name, strings.Join(BackendNames(), ", "))
}

// BackendNames returns the backend names, sorted.
func BackendNames() []string { return []string{BackendBlocked, BackendInt8, BackendNaive} }

// naiveBackend adapts the package-level reference kernels to the Backend
// interface. It is stateless; Naive returns a shared instance, so dispatching
// through it adds no per-call allocation.
type naiveBackend struct{}

var naiveShared Backend = naiveBackend{}

// Naive returns the shared reference backend.
func Naive() Backend { return naiveShared }

func (naiveBackend) Name() string { return BackendNaive }

//edgepc:hotpath
func (naiveBackend) MatMulInto(out, a, b *Matrix) error { return MatMulInto(out, a, b) }

//edgepc:hotpath
func (naiveBackend) ConcatInto(out, a, b *Matrix) error { return ConcatInto(out, a, b) }

//edgepc:hotpath
func (naiveBackend) MatMulBiasInto(out, a, b *Matrix, bias []float32) error {
	return MatMulBiasInto(out, a, b, bias)
}
