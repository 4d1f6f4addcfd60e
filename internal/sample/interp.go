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
// the plan: row t of dst is Σ_i w[t,i] · src[idx[t,i]]. featDim is the
// feature width of src rows; ld ≥ featDim is the row stride of dst, whose
// row t is dst[t·ld : t·ld+featDim] — columns past featDim are left as they
// are, so a caller can interpolate into the left columns of a wider matrix.
// dst is allocated, t·ld long, if it is shorter.
func ApplyPlan(plan *InterpPlan, src []float32, featDim int, dst []float32, ld int) ([]float32, error) {
	t := plan.Targets()
	if featDim < 1 || len(src)%featDim != 0 {
		return nil, fmt.Errorf("sample: src length %d not divisible by featDim %d", len(src), featDim)
	}
	if ld < featDim {
		return nil, fmt.Errorf("sample: destination stride %d below featDim %d", ld, featDim)
	}
	need := t * ld
	if cap(dst) < need {
		dst = make([]float32, need)
	}
	dst = dst[:need]
	parallel.ForChunks(t, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out := dst[i*ld : i*ld+featDim]
			for c := range out {
				out[c] = 0
			}
			for j := 0; j < plan.K; j++ {
				s := int(plan.Indexes[i*plan.K+j])
				w := plan.Weights[i*plan.K+j]
				row := src[s*featDim : (s+1)*featDim]
				for c, v := range row {
					out[c] += float32(w * v)
				}
			}
		}
	})
	return dst, nil
}
