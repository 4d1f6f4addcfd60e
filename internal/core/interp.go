package core

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/sample"
)

// Morton-based up-sampling (§5.1.2, "Optimizing Up-sampling"): because the
// sampled points sit at known evenly spaced positions of the Morton order,
// the (approximately) closest samples to any full-resolution point are the
// few samples whose positions bracket it. Instead of searching all n samples
// (O(n) per target, the SOTA ThreeNN), we examine only `Candidates` bracketing
// samples and pick the 3 closest — an O(n)-fold reduction.
//
// Note: the paper's formula lists the candidate set as {j'−2·step, j'−step,
// j'+step, j'+2·step} with j' = j − j%step, which excludes the sampled
// position j' itself even though it is by construction among the closest.
// We read that as a typo and use the four bracketing sample *ranks*
// {m−1, m, m+1, m+2} around the target (m = rank of the nearest sample at or
// below the target position), which preserves the intended semantics: a
// constant-size candidate set of stride-adjacent samples.

// MortonInterp plans feature interpolation from samples at known structurized
// positions back to all points of the structurized cloud.
type MortonInterp struct {
	// Candidates is the number of bracketing samples examined per target
	// (default 4, the paper's choice). The best min(3, Candidates) are kept.
	Candidates int
}

// Name identifies the interpolator in reports.
func (MortonInterp) Name() string { return "morton-interp" }

// PlanStructurizedInto writes into plan an interpolation plan for every
// point of the structurized cloud (targets = positions 0…N−1) from the
// samples at samplePos (ascending structurized positions, as produced by
// SamplePositions). Plan indexes refer to sample *ranks* (0…n−1), matching
// the row order of the sampled feature matrix. It reuses plan's storage: a
// caller that keeps the plan across frames allocates nothing.
func (mi MortonInterp) PlanStructurizedInto(plan *sample.InterpPlan, points []geom.Point3, samplePos []int) error {
	n := len(samplePos)
	if n == 0 {
		return sample.ErrNoSources
	}
	if !sort.IntsAreSorted(samplePos) {
		return fmt.Errorf("core: sample positions must be ascending")
	}
	cand := mi.Candidates
	if cand <= 0 {
		cand = 4
	}
	if cand > n {
		cand = n
	}
	k := min(3, cand)
	plan.Resize(len(points), k)
	var idxBuf [3]int
	var dBuf [3]float64
	idx, d := idxBuf[:k], dBuf[:k]
	// m is the rank of the last sample at or below position j (−1 before
	// the first). Targets ascend, so it only ever moves forward.
	m := -1
	for j := range points {
		for m+1 < n && samplePos[m+1] <= j {
			m++
		}
		lo := m - (cand-1)/2
		if lo < 0 {
			lo = 0
		}
		if lo+cand > n {
			lo = n - cand
		}
		bestOfCandidates(points[j], points, samplePos, lo, lo+cand, idx, d)
		plan.FillWeights(j, idx, d)
	}
	return nil
}

// bestOfCandidates fills idx/d with the k nearest samples among sample
// ranks [lo, hi) under (DistSq, rank), ascending: geom.InsertTopK's order,
// NaN never taken, written out for ranks that ascend — a candidate goes
// after an equal distance, so it displaces a larger one or an empty slot
// (+Inf, −1) and needs no tie test. The plan's four-candidate rows ran
// 1.1–1.2× slower through InsertTopK, in an inlined form and in its own
// (EXPERIMENTS.md).
func bestOfCandidates(p geom.Point3, points []geom.Point3, samplePos []int, lo, hi int, idx []int, d []float64) {
	k := len(idx)
	geom.ClearTopK(idx, d)
	for r := lo; r < hi; r++ {
		dist := p.DistSq(points[samplePos[r]])
		if !(dist < d[k-1] || idx[k-1] < 0 && dist <= d[k-1]) {
			continue
		}
		j := k - 1
		for j > 0 && (d[j-1] > dist || idx[j-1] < 0) {
			d[j], idx[j] = d[j-1], idx[j-1]
			j--
		}
		d[j], idx[j] = dist, r
	}
}
