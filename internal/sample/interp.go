package sample

import (
	"errors"
	"fmt"

	"repro/internal/geom"
	"repro/internal/parallel"
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
// target (exactly-coincident points receive weight 1).
type InterpPlan struct {
	K       int       // sources per target
	Indexes []int     // len = targets × K
	Weights []float64 // len = targets × K
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
	plan := &InterpPlan{
		K:       k,
		Indexes: make([]int, len(targets)*k),
		Weights: make([]float64, len(targets)*k),
	}
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

// nearestK fills idx/d with the k nearest sources to p (ascending distance).
// idx and d must have length k.
func nearestK(p geom.Point3, sources []geom.Point3, idx []int, d []float64) {
	k := len(idx)
	for i := range d {
		d[i] = inf
		idx[i] = -1
	}
	for s, q := range sources {
		dist := p.DistSq(q)
		if dist >= d[k-1] {
			continue
		}
		// Insert into the sorted top-k.
		j := k - 1
		for j > 0 && d[j-1] > dist {
			d[j] = d[j-1]
			idx[j] = idx[j-1]
			j--
		}
		d[j] = dist
		idx[j] = s
	}
}

const inf = 1e300

// FillWeights writes target t's row of the plan: sources idx (plan.K of
// them) weighted by the inverse of their squared distances d, normalized. If
// a source coincides with the target (d = 0) it receives all the weight.
// Exported so that package spatial, which finds the same sources faster,
// produces bit-identical weights by construction.
func (plan *InterpPlan) FillWeights(t int, idx []int, d []float64) {
	k := plan.K
	base := t * k
	const eps = 1e-10
	total := 0.0
	for i := 0; i < k; i++ {
		plan.Indexes[base+i] = idx[i]
		w := 1.0 / (d[i] + eps)
		plan.Weights[base+i] = w
		total += w
	}
	for i := 0; i < k; i++ {
		plan.Weights[base+i] /= total
	}
}

// ApplyPlan interpolates source features into target features according to
// the plan: dst[t] = Σ_i w[t,i] · src[idx[t,i]]. dst is allocated if too
// small. featDim is the feature width of src rows.
func ApplyPlan(plan *InterpPlan, src []float32, featDim int, dst []float32) ([]float32, error) {
	t := plan.Targets()
	need := t * featDim
	if len(src)%featDim != 0 {
		return nil, fmt.Errorf("sample: src length %d not divisible by featDim %d", len(src), featDim)
	}
	if cap(dst) < need {
		dst = make([]float32, need)
	}
	dst = dst[:need]
	parallel.ForChunks(t, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out := dst[i*featDim : (i+1)*featDim]
			for c := range out {
				out[c] = 0
			}
			for j := 0; j < plan.K; j++ {
				s := plan.Indexes[i*plan.K+j]
				w := float32(plan.Weights[i*plan.K+j])
				row := src[s*featDim : (s+1)*featDim]
				for c, v := range row {
					out[c] += w * v
				}
			}
		}
	})
	return dst, nil
}
