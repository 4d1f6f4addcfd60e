package nn

import (
	"math"

	"repro/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	Step(params []*Param)
}

// ZeroGrads clears all parameter gradients.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// SGD is stochastic gradient descent with optional momentum and weight decay.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity map[*Param]*tensor.Matrix
}

// Step implements Optimizer.
func (s *SGD) Step(params []*Param) {
	if s.velocity == nil {
		s.velocity = make(map[*Param]*tensor.Matrix)
	}
	for _, p := range params {
		g := p.Grad.Data
		w := p.Value.Data
		if s.WeightDecay > 0 {
			wd := float32(s.WeightDecay)
			for i := range g {
				g[i] += float32(wd * w[i])
			}
		}
		if s.Momentum > 0 {
			v := s.velocity[p]
			if v == nil {
				v = tensor.New(p.Value.Rows, p.Value.Cols)
				s.velocity[p] = v
			}
			mu, lr := float32(s.Momentum), float32(s.LR)
			for i := range w {
				v.Data[i] = float32(mu*v.Data[i]) + g[i]
				w[i] -= float32(lr * v.Data[i])
			}
		} else {
			lr := float32(s.LR)
			for i := range w {
				w[i] -= float32(lr * g[i])
			}
		}
	}
}

// Adam is the Adam optimizer (Kingma & Ba 2015).
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64

	t int
	m map[*Param]*tensor.Matrix
	v map[*Param]*tensor.Matrix
}

// NewAdam creates an Adam optimizer with the usual defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step implements Optimizer.
func (a *Adam) Step(params []*Param) {
	if a.m == nil {
		a.m = make(map[*Param]*tensor.Matrix)
		a.v = make(map[*Param]*tensor.Matrix)
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, v := a.m[p], a.v[p]
		if m == nil {
			m = tensor.New(p.Value.Rows, p.Value.Cols)
			v = tensor.New(p.Value.Rows, p.Value.Cols)
			a.m[p], a.v[p] = m, v
		}
		b1, b2 := float32(a.Beta1), float32(a.Beta2)
		for i, g := range p.Grad.Data {
			m.Data[i] = float32(b1*m.Data[i]) + float32((1-b1)*g)
			v.Data[i] = float32(b2*v.Data[i]) + float32((1-b2)*g*g)
			mh := float64(m.Data[i]) / bc1
			vh := float64(v.Data[i]) / bc2
			p.Value.Data[i] -= float32(a.LR * mh / (math.Sqrt(vh) + a.Eps))
		}
	}
}
