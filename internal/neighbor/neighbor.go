// Package neighbor provides the exact neighbor-search baselines for point
// clouds (ball query, k-NN) that PointNet++ and DGCNN use to build local
// neighborhoods, and that every approximate searcher is tested against.
//
// Brute-force ball query and k-NN cost O(N) per query — O(N²) per frame —
// which the paper identifies as the second pipeline bottleneck (§5.2.1).
// EdgePC's index-window approximation lives in package core.
package neighbor

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/parallel"
)

// Common search errors.
var (
	ErrNoPoints = errors.New("neighbor: empty point set")
	ErrBadK     = errors.New("neighbor: invalid neighbor count")
)

// Searcher finds, for every query point, the indexes of k neighbors among the
// candidate points. Results are returned flat: neighbor j of query q is at
// out[q*k+j]. Every implementation returns exactly k indexes per query,
// padding (by repeating the nearest / first found) when fewer candidates
// qualify — the padding convention of the PointNet++ reference CUDA kernels.
type Searcher interface {
	Search(points, queries []geom.Point3, k int) ([]int, error)
	Name() string
}

func checkSearch(points []geom.Point3, k int) error {
	if len(points) == 0 {
		return ErrNoPoints
	}
	if k < 1 {
		return fmt.Errorf("%w: k=%d", ErrBadK, k)
	}
	return nil
}

// BruteKNN is exhaustive k-nearest-neighbor search: O(N) per query with a
// small insertion-sorted top-k buffer.
type BruteKNN struct{}

// Name implements Searcher.
func (BruteKNN) Name() string { return "knn-brute" }

// Search implements Searcher.
func (BruteKNN) Search(points, queries []geom.Point3, k int) ([]int, error) {
	if err := checkSearch(points, k); err != nil {
		return nil, err
	}
	kk := k
	if kk > len(points) {
		kk = len(points)
	}
	out := make([]int, len(queries)*k)
	parallel.ForChunks(len(queries), func(lo, hi int) {
		idx := make([]int, kk)
		d := make([]float64, kk)
		for q := lo; q < hi; q++ {
			topK(queries[q], points, idx, d)
			writePadded(out[q*k:(q+1)*k], idx)
		}
	})
	return out, nil
}

// topK fills idx/d with the k nearest points to p under (DistSq, index),
// ascending.
func topK(p geom.Point3, points []geom.Point3, idx []int, d []float64) {
	geom.ClearTopK(idx, d)
	for s := range points {
		geom.InsertTopK(idx, d, s, p.DistSq(points[s]))
	}
}

// writePadded copies found into dst, repeating the first element to fill any
// remaining slots.
func writePadded(dst []int, found []int) {
	n := copy(dst, found)
	if n == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	for i := n; i < len(dst); i++ {
		dst[i] = found[0]
	}
}

// KNNExcludingSelf returns, for each query given as an index into points,
// its k nearest *other* points (exhaustive search with k+1 and the self hit
// dropped). This is the exact reference for approximate searchers that
// exclude the query point, like the Morton window searcher with W > k.
func KNNExcludingSelf(points []geom.Point3, queryIdx []int, k int) ([]int, error) {
	if err := checkSearch(points, k); err != nil {
		return nil, err
	}
	queries := make([]geom.Point3, len(queryIdx))
	for i, q := range queryIdx {
		if q < 0 || q >= len(points) {
			return nil, fmt.Errorf("neighbor: query index %d out of %d points", q, len(points))
		}
		queries[i] = points[q]
	}
	full, err := BruteKNN{}.Search(points, queries, k+1)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(queryIdx)*k)
	for qi, self := range queryIdx {
		row := full[qi*(k+1) : (qi+1)*(k+1)]
		j := 0
		for _, n := range row {
			if n == self {
				continue
			}
			if j < k {
				out[qi*k+j] = n
				j++
			}
		}
		// Self never appeared (it was beyond the k+1 nearest among
		// duplicates): drop the farthest entry instead.
		for ; j < k; j++ {
			out[qi*k+j] = row[k]
		}
	}
	return out, nil
}

// BallQuery is the PointNet++ grouping primitive: for each query it returns
// the first k candidate points lying inside the ball of radius R around the
// query, padding with the first hit. If the ball is empty, the nearest
// candidate is used so downstream grouping always has valid indexes.
type BallQuery struct {
	R float64
}

// Name implements Searcher.
func (BallQuery) Name() string { return "ball-query" }

// Search implements Searcher.
func (b BallQuery) Search(points, queries []geom.Point3, k int) ([]int, error) {
	if err := checkSearch(points, k); err != nil {
		return nil, err
	}
	if b.R <= 0 {
		return nil, fmt.Errorf("neighbor: ball query needs positive radius, got %v", b.R)
	}
	r2 := b.R * b.R
	out := make([]int, len(queries)*k)
	parallel.ForChunks(len(queries), func(lo, hi int) {
		found := make([]int, 0, k)
		for q := lo; q < hi; q++ {
			found = found[:0]
			p := queries[q]
			nearest, nearestD := 0, math.Inf(1)
			for s := range points {
				dist := p.DistSq(points[s])
				if dist < nearestD {
					nearest, nearestD = s, dist
				}
				if dist <= r2 {
					found = append(found, s)
					if len(found) == k {
						break
					}
				}
			}
			if len(found) == 0 {
				found = append(found, nearest)
			}
			writePadded(out[q*k:(q+1)*k], found)
		}
	})
	return out, nil
}
