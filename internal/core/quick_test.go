package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/sample"
)

// latticeCloud builds n points with distinct integer coordinates in [0,32)³.
// With TotalBits=30 the structurize grid has 1024 cells per axis over a span
// of at most 31 units, so distinct integer coordinates land in distinct
// voxels — distinct Morton codes, hence a unique sorted order. That is the
// precondition for exact permutation invariance: equal codes tie-break by
// input position, which an input permutation would perturb.
func latticeCloud(rng *rand.Rand, n int) *geom.Cloud {
	seen := make(map[[3]int]bool, n)
	c := geom.NewCloud(n, 0)
	for i := 0; i < n; {
		key := [3]int{rng.Intn(32), rng.Intn(32), rng.Intn(32)}
		if seen[key] {
			continue
		}
		seen[key] = true
		c.Points[i] = geom.Point3{X: float64(key[0]), Y: float64(key[1]), Z: float64(key[2])}
		i++
	}
	return c
}

// TestQuickWindowPermutationInvariance: after Morton structurization, the
// W=k index-window neighbor sets are invariant to the order the points
// arrived in — the property that makes the approximate searcher usable on
// unordered sensor streams.
func TestQuickWindowPermutationInvariance(t *testing.T) {
	prop := func(seed int64, kRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + int(kRaw)%6      // 2..7
		n := k + 2 + int(nRaw)%24 // enough points for a window
		c := latticeCloud(rng, n)
		shuf := geom.NewCloud(n, 0)
		for i, p := range rng.Perm(n) {
			shuf.Points[p] = c.Points[i]
		}
		opts := StructurizeOptions{TotalBits: 30}
		sA, errA := Structurize(c, opts)
		sB, errB := Structurize(shuf, opts)
		if errA != nil || errB != nil {
			return false
		}
		// Distinct codes: both orders must sort to the same sequence.
		for i := range sA.Cloud.Points {
			if sA.Cloud.Points[i] != sB.Cloud.Points[i] {
				return false
			}
		}
		// W = k is the pure index pick — no distance ties to worry about.
		w := WindowSearcher{W: k}
		nbrA, errA := w.SearchAll(sA.Cloud.Points, k)
		nbrB, errB := w.SearchAll(sB.Cloud.Points, k)
		if errA != nil || errB != nil || len(nbrA) != len(nbrB) {
			return false
		}
		for i := range nbrA {
			if sA.Cloud.Points[nbrA[i]] != sB.Cloud.Points[nbrB[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMortonInterpWeights: for any structurized cloud and any uniform
// sample set, every interpolation target gets min(3, candidates) in-range
// source ranks with non-negative weights summing to 1 — the invariant the FP
// feature mix relies on (a weight sum ≠ 1 would rescale features).
func TestQuickMortonInterpWeights(t *testing.T) {
	prop := func(seed int64, nRaw, mRaw, candRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + int(nRaw)%60
		m := 1 + int(mRaw)%n
		cand := int(candRaw) % 7 // 0 exercises the default of 4
		c := latticeCloud(rng, n)
		s, err := Structurize(c, StructurizeOptions{TotalBits: 30})
		if err != nil {
			return false
		}
		samplePos := sample.UniformIndexes(n, m)
		plan := &sample.InterpPlan{}
		if err := (MortonInterp{Candidates: cand}).PlanStructurizedInto(plan, s.Cloud.Points, samplePos); err != nil {
			return false
		}
		k := plan.K
		if k < 1 || k > 3 || len(plan.Indexes) != n*k || len(plan.Weights) != n*k {
			return false
		}
		source := func(r int) geom.Point3 { return s.Cloud.Points[samplePos[r]] }
		for tgt := 0; tgt < n; tgt++ {
			for i := 0; i < k; i++ {
				if idx := int(plan.Indexes[tgt*k+i]); idx < 0 || idx >= m {
					return false
				}
			}
			if !weightsExact(plan, tgt, s.Cloud.Points[tgt], source) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
