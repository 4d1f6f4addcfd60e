package tensor

import (
	"fmt"
	"sort"
	"strings"
)

// Backend is a pluggable implementation of the destination-writing kernels
// the inference hot path dispatches through — only those: training's backward
// products and the data-movement stages call the package-level functions (the
// Linear layer's bias rides in MatMulBiasInto's store). Every implementation must
// honor the contracts of the package-level reference functions: identical
// shape/alias validation,
// destinations fully overwritten, and no retained references to caller
// buffers after the call returns — workspace buffers are recycled between
// frames, so caching anything keyed on an *activation* matrix is a bug
// (weights, which a backend may cache, live for the process).
//
// Numerics: the naive backend is the reference — the oracle the others are
// tested against. blocked, the default, must stay within 1e-5 of it
// element-wise (in practice it preserves the per-cell accumulation order and
// is bit-identical, which is why the golden fixtures hold under either, and
// why training always runs blocked: backends are an inference-only axis);
// int8 is quantized and only promises the documented logit tolerance plus
// the ≤2pp accuracy envelope.
//
// Concurrency: a Backend instance follows the Graph contract — one instance
// per replica/goroutine. Stateless backends (naive, blocked) are safe to
// share; int8 keeps per-instance scratch and must not be shared across
// goroutines.
type Backend interface {
	Name() string
	MatMulInto(out, a, b *Matrix) error
	ConcatInto(out, a, b *Matrix) error
	// MatMulBiasInto is MatMulInto with bias[j] added to column j as each
	// row is stored: the Linear layer's whole eval kernel. The add is an
	// exact float32 one in every backend (int8 adds after it dequantizes).
	MatMulBiasInto(out, a, b *Matrix, bias []float32) error
}

// Registered backend names.
const (
	BackendNaive   = "naive"
	BackendBlocked = "blocked"
	BackendInt8    = "int8"
)

// DefaultBackend is the backend an empty selection resolves to: NewBackend("")
// and, through Default, every layer and graph that was never given one.
const DefaultBackend = BackendBlocked

// Default returns an instance of DefaultBackend — the one place "no backend
// configured" is decided for eval frames (nn.Linear, model.Graph). Training
// does not ask: it runs blocked whatever is configured.
func Default() Backend { return backendFactories[DefaultBackend]() }

// BackendFactory constructs a fresh Backend instance. NewBackend calls the
// factory per request so every replica gets private state (the int8 backend
// keeps quantization scratch; sharing it across goroutines would race).
type BackendFactory func() Backend

var backendFactories = map[string]BackendFactory{}

// RegisterBackend installs a backend factory under name, replacing any
// previous registration. New kernel implementations plug into the whole stack
// (nn layers, the model executor, pipeline.Options, the serve ladder and the
// cmd -backend flags) by registering here.
func RegisterBackend(name string, f BackendFactory) {
	if f == nil {
		panic(fmt.Sprintf("tensor: RegisterBackend(%q) with nil factory", name))
	}
	backendFactories[name] = f
}

// NewBackend constructs a fresh instance of the named backend; the empty name
// selects DefaultBackend. Unknown names produce an error listing what is
// registered (mirroring pipeline.NewNet's unregistered-architecture error).
func NewBackend(name string) (Backend, error) {
	if name == "" {
		name = DefaultBackend
	}
	f, ok := backendFactories[name]
	if !ok {
		return nil, fmt.Errorf("tensor: no backend registered for %q (registered: %s)", name, strings.Join(BackendNames(), ", "))
	}
	return f(), nil
}

// BackendNames returns the registered backend names, sorted.
func BackendNames() []string {
	names := make([]string, 0, len(backendFactories))
	for n := range backendFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterBackend(BackendNaive, func() Backend { return Naive() })
	RegisterBackend(BackendBlocked, func() Backend { return Blocked() })
	RegisterBackend(BackendInt8, func() Backend { return NewInt8() })
}

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
