package sample

import (
	"errors"
	"fmt"

	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Up-sampling (feature propagation) interpolates features of the original N
// points from the n sampled points. PointNet++'s FP modules use 3-nearest-
// neighbor inverse-distance weighting; finding those 3 neighbors costs
// O(N·n), making the last FP module a sampling-stage bottleneck (Fig. 9).
// EdgePC's approximation (package core) restricts the candidate set to 4
// stride-adjacent samples, cutting the search by O(n).

// ErrNoSources reports interpolation with an empty source set.
var ErrNoSources = errors.New("sample: interpolation needs at least one source point")

// InterpPlan holds, for each target point, the indexes of its interpolation
// sources and their normalized weights. Weights are ≥ 0 and sum to 1 per
// target (exactly-coincident points receive weight 1). They are computed in
// float64 and stored as the float32 the features are weighted with, and the
// indexes as int32: a plan is 8 bytes a source, half of what int and float64
// took, and it is kept across frames.
type InterpPlan struct {
	K       int       // sources per target
	Indexes []int32   // len = targets × K
	Weights []float32 // len = targets × K
}

// Resize makes p a plan of k sources for each of targets targets, reusing
// its storage like append; the rows' contents are left to the caller.
func (p *InterpPlan) Resize(targets, k int) {
	p.K = k
	n := targets * k
	if cap(p.Indexes) < n {
		p.Indexes = make([]int32, n)
	}
	if cap(p.Weights) < n {
		p.Weights = make([]float32, n)
	}
	p.Indexes, p.Weights = p.Indexes[:n], p.Weights[:n]
}

// Targets returns the number of target points in the plan.
func (p *InterpPlan) Targets() int {
	if p.K == 0 {
		return 0
	}
	return len(p.Indexes) / p.K
}

// Interpolator produces interpolation plans from sampled points back to the
// full-resolution point set.
type Interpolator interface {
	Plan(targets, sources []geom.Point3) (*InterpPlan, error)
	Name() string
}

// ThreeNN is the SOTA feature-propagation interpolator: for every target
// point it finds the 3 nearest source points by exhaustive search and weights
// them by inverse squared distance.
type ThreeNN struct{}

// Name implements Interpolator.
func (ThreeNN) Name() string { return "three-nn" }

// Plan implements Interpolator.
func (ThreeNN) Plan(targets, sources []geom.Point3) (*InterpPlan, error) {
	if len(sources) == 0 {
		return nil, ErrNoSources
	}
	k := 3
	if len(sources) < k {
		k = len(sources)
	}
	plan := &InterpPlan{}
	plan.Resize(len(targets), k)
	parallel.ForChunks(len(targets), func(lo, hi int) {
		bestIdx := make([]int, k)
		bestD := make([]float64, k)
		for t := lo; t < hi; t++ {
			nearestK(targets[t], sources, bestIdx, bestD)
			plan.FillWeights(t, bestIdx, bestD)
		}
	})
	return plan, nil
}

// nearestK fills idx/d with the k nearest sources to p under (DistSq,
// index), ascending. idx and d must have length k.
func nearestK(p geom.Point3, sources []geom.Point3, idx []int, d []float64) {
	geom.ClearTopK(idx, d)
	for s, q := range sources {
		geom.InsertTopK(idx, d, s, p.DistSq(q))
	}
}

// FillWeights writes target t's row of the plan: sources idx (plan.K of
// them) weighted by the inverse of their squared distances d, normalized. If
// a source coincides with the target (d = 0) it receives all the weight.
// Exported so that package spatial, which finds the same sources faster,
// produces bit-identical weights by construction.
func (plan *InterpPlan) FillWeights(t int, idx []int, d []float64) {
	k := plan.K
	base := t * k
	const eps = 1e-10
	if k == 3 {
		// The loop below, unrolled for the model's plans.
		w0, w1, w2 := 1.0/(d[0]+eps), 1.0/(d[1]+eps), 1.0/(d[2]+eps)
		total := 0.0 + w0 + w1 + w2
		ix, ws := plan.Indexes[base:base+3], plan.Weights[base:base+3]
		ix[0], ix[1], ix[2] = int32(idx[0]), int32(idx[1]), int32(idx[2])
		ws[0], ws[1], ws[2] = float32(w0/total), float32(w1/total), float32(w2/total)
		return
	}
	var buf [4]float64
	w := buf[:0]
	if k > len(buf) {
		w = make([]float64, 0, k)
	}
	total := 0.0
	for i := 0; i < k; i++ {
		plan.Indexes[base+i] = int32(idx[i])
		w = append(w, 1.0/(d[i]+eps))
		total += w[i]
	}
	for i := 0; i < k; i++ {
		plan.Weights[base+i] = float32(w[i] / total)
	}
}

// ApplyPlan interpolates source features into target features according to
// the plan: row t of dst is Σ_i w[t,i] · src[idx[t,i]], summed from 0 in
// source order with each product rounded on its own, so a −0 sum comes out
// +0. featDim is the feature width of src rows; ld ≥ featDim is the row
// stride of dst, whose row t is dst[t·ld : t·ld+featDim] — columns past
// featDim are left as they are, so a caller can interpolate into the left
// columns of a wider matrix. dst is allocated, t·ld long, if it is shorter.
// A plan of three sources (PointNet++'s) runs applyPlan3's AVX2 kernel where
// the host has it; every other runs applyPlanGo.
//
//edgepc:hotpath
func ApplyPlan(plan *InterpPlan, src []float32, featDim int, dst []float32, ld int) ([]float32, error) {
	t := plan.Targets()
	if featDim < 1 || len(src)%featDim != 0 {
		return nil, fmt.Errorf("sample: src length %d not divisible by featDim %d", len(src), featDim)
	}
	if ld < featDim {
		return nil, fmt.Errorf("sample: destination stride %d below featDim %d", ld, featDim)
	}
	if len(plan.Weights) != len(plan.Indexes) {
		return nil, fmt.Errorf("sample: plan has %d indexes and %d weights", len(plan.Indexes), len(plan.Weights))
	}
	rows := uint32(len(src) / featDim)
	for _, s := range plan.Indexes {
		if uint32(s) >= rows {
			return nil, fmt.Errorf("sample: plan source %d outside %d source rows", s, rows)
		}
	}
	need := t * ld
	if cap(dst) < need {
		//edgepc:lint-ignore hotpathalloc cap-guarded grow; the model passes a destination that fits
		dst = make([]float32, need)
	}
	dst = dst[:need]
	if t == 0 {
		return dst, nil
	}
	if applyAVX2 && plan.K == 3 {
		applyPlan3(&dst[0], ld, &src[0], featDim, &plan.Indexes[0], &plan.Weights[0], t)
	} else {
		applyPlanGo(plan, src, featDim, dst, ld)
	}
	return dst, nil
}

// applyAVX2 is the answer of tensor's one CPUID probe; a test turns it off
// to run the Go loops.
var applyAVX2 = tensor.HasAVX2()

// applyPlanGo is ApplyPlan's loop over a checked plan, and the oracle of
// applyPlan3. Three sources, the model's plans, take an unrolled form that
// writes each output once.
func applyPlanGo(plan *InterpPlan, src []float32, featDim int, dst []float32, ld int) {
	k := plan.K
	for i := 0; i < plan.Targets(); i++ {
		out := dst[i*ld : i*ld+featDim]
		idx, w := plan.Indexes[i*k:i*k+k], plan.Weights[i*k:i*k+k]
		if k == 3 {
			r0 := src[int(idx[0])*featDim:][:len(out)]
			r1 := src[int(idx[1])*featDim:][:len(out)]
			r2 := src[int(idx[2])*featDim:][:len(out)]
			w0, w1, w2 := w[0], w[1], w[2]
			for c := range out {
				out[c] = 0 + float32(w0*r0[c]) + float32(w1*r1[c]) + float32(w2*r2[c])
			}
			continue
		}
		for c := range out {
			out[c] = 0
		}
		for j, s := range idx {
			row := src[int(s)*featDim:][:len(out)]
			for c, v := range row {
				out[c] += float32(w[j] * v)
			}
		}
	}
}
