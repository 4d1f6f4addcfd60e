// Package intoalias_clean calls the *Into kernels with distinct buffers and
// agreeing shapes.
package intoalias_clean

import (
	"repro/internal/tensor"
)

// Product computes a 4x5 product into an exactly sized destination.
func Product() error {
	a := tensor.New(4, 3)
	b := tensor.New(3, 5)
	out := tensor.New(4, 5)
	return tensor.MatMulInto(out, a, b)
}

// Fuse concatenates into an exactly sized workspace buffer.
func Fuse(ws *tensor.Workspace) error {
	a := ws.Get(4, 2)
	b := ws.Get(4, 3)
	out := ws.Get(4, 5)
	err := tensor.ConcatInto(out, a, b)
	ws.Put(out)
	ws.Put(b)
	ws.Put(a)
	return err
}

// Unknown dimensions are left to the kernels' runtime checks.
func Unknown(out, a, b *tensor.Matrix) error {
	return tensor.MatMulBTInto(out, a, b)
}

// BackendProduct dispatches a correctly shaped product through the backend
// interface.
func BackendProduct(be tensor.Backend) error {
	a := tensor.New(4, 3)
	b := tensor.New(3, 5)
	out := tensor.New(4, 5)
	return be.MatMulInto(out, a, b)
}

// BackendUnknown leaves runtime-shaped backend calls to the kernels' checks.
func BackendUnknown(be tensor.Backend, out, a, b *tensor.Matrix) error {
	return be.MatMulInto(out, a, b)
}
