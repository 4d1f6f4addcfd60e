// Package nn is a small neural-network library with explicit forward and
// backward passes over tensor.Matrix activations. It exists because
// reproducing EdgePC's accuracy experiments requires *retraining* the
// point-cloud CNNs with the Morton approximations in the loop (§5.3) — a
// pretrained-weights path would not exercise the paper's central claim that
// retraining recovers the accuracy lost to approximate sampling and false
// neighbors.
//
// Activations are (items × channels) matrices; a "shared MLP" (the 1×1
// convolution of PointNet-family networks) is therefore an ordinary Linear
// layer applied to every point row independently.
package nn

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Param is a trainable parameter with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Matrix
	Grad  *tensor.Matrix
}

// NewParam allocates a parameter and its gradient of the given shape.
func NewParam(name string, rows, cols int) *Param {
	return &Param{Name: name, Value: tensor.New(rows, cols), Grad: tensor.New(rows, cols)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is a differentiable computation. Backward must be called with the
// gradient of the loss w.r.t. the layer's most recent Forward output and
// returns the gradient w.r.t. that Forward's input, accumulating parameter
// gradients along the way.
type Layer interface {
	Forward(x *tensor.Matrix, train bool) (*tensor.Matrix, error)
	Backward(grad *tensor.Matrix) (*tensor.Matrix, error)
	Params() []*Param
}

// WorkspaceUser is implemented by layers that can serve inference
// (train=false) activations from a shared tensor.Workspace instead of
// allocating fresh matrices. Workspace mode never changes numerics and never
// touches the training path: the inference workspace recycles an
// intermediate as soon as the next layer has consumed it, while training
// keeps every activation until Backward has read it (see TrainArenaUser).
type WorkspaceUser interface {
	SetWorkspace(ws *tensor.Workspace)
}

// TrainArenaUser is implemented by layers that take their train-mode
// activations and gradients from a training arena: a tensor.Workspace the
// graph being trained owns and Resets at each train Forward, so that a step
// reuses the last step's buffers. Forward(x, true) Gets what Backward reads
// and leaves it lent until that Reset; Backward Gets the gradient it returns
// and Puts the one it was given once it has consumed it — a gradient from the
// arena is handed over with its ownership. Setting the arena, nil included,
// drops every backward cache: nil ends the training session, after which the
// layer holds no training state and Backward fails until the next train
// Forward. Without an arena the same calls allocate, as they always did.
type TrainArenaUser interface {
	SetTrainArena(a *tensor.Workspace)
}

// AttachTrainArena sets a on every given layer that takes its train-mode
// buffers from an arena (Sequential recurses into its children).
func AttachTrainArena(a *tensor.Workspace, layers ...Layer) {
	for _, l := range layers {
		if u, ok := l.(TrainArenaUser); ok {
			u.SetTrainArena(a)
		}
	}
}

// wsGet returns a rows×cols matrix from ws, or a fresh one when there is no
// workspace; its contents are unspecified either way, and every caller
// overwrites all of it.
func wsGet(ws *tensor.Workspace, rows, cols int) *tensor.Matrix {
	if ws != nil {
		return ws.Get(rows, cols)
	}
	//edgepc:lint-ignore hotpathalloc a layer without a workspace or training arena allocates
	return tensor.New(rows, cols)
}

// wsPut returns m to ws if ws lends it; a matrix it does not lend (a caller's,
// a view) is left alone.
func wsPut(ws *tensor.Workspace, m *tensor.Matrix) {
	if ws != nil && ws.Owns(m) {
		ws.Put(m)
	}
}

// AttachWorkspace sets ws on every given layer that supports
// workspace-backed inference (Sequential recurses into its children).
func AttachWorkspace(ws *tensor.Workspace, layers ...Layer) {
	for _, l := range layers {
		if u, ok := l.(WorkspaceUser); ok {
			u.SetWorkspace(ws)
		}
	}
}

// InitHe fills the parameter with He-normal values scaled by the fan-in
// (suitable ahead of ReLU).
func InitHe(p *Param, fanIn int, rng *rand.Rand) {
	std := math.Sqrt(2.0 / float64(fanIn))
	for i := range p.Value.Data {
		p.Value.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// InitXavier fills the parameter with Xavier-uniform values.
func InitXavier(p *Param, fanIn, fanOut int, rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range p.Value.Data {
		p.Value.Data[i] = float32((float64(rng.Float64())*2 - 1) * limit)
	}
}

// CollectParams gathers the parameters of several layers.
func CollectParams(layers ...Layer) []*Param {
	var out []*Param
	for _, l := range layers {
		out = append(out, l.Params()...)
	}
	return out
}
