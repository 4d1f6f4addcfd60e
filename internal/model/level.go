package model

import (
	"fmt"
	"sync"

	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// level is the per-resolution state flowing through a hierarchical
// point-cloud network's feature pass: the points at this resolution, their
// feature matrix, and whether the point order is Morton-sorted (index-based
// operations are only valid on sorted levels). A PointNet++ level's points
// are its plan's (planLevel), which also carries the sampling indexes.
//
// A key property the EdgePC design exploits: uniform-stride sampling of a
// Morton-sorted level yields positions in ascending order, so the *sampled
// subset is itself Morton-sorted* — deeper modules may keep using index-based
// operations without re-sorting.
type level struct {
	pts          []geom.Point3
	feats        *tensor.Matrix // len(pts) × C
	mortonSorted bool
}

func (l *level) len() int { return len(l.pts) }

// wsGet serves a rows×cols matrix from ws — the inference workspace or the
// training arena — falling back to a fresh allocation (ws == nil: a network
// run outside a Graph).
//
//edgepc:hotpath
func wsGet(ws *tensor.Workspace, rows, cols int) *tensor.Matrix {
	if ws != nil {
		return ws.Get(rows, cols)
	}
	//edgepc:lint-ignore hotpathalloc deliberate fallback when no workspace or arena is attached
	return tensor.New(rows, cols)
}

// wsPut recycles m if it is on loan from ws; otherwise it is a no-op. Safe to
// call with a nil workspace, a nil matrix, or a matrix the workspace does not
// own (e.g. a caller-provided input).
func wsPut(ws *tensor.Workspace, m *tensor.Matrix) {
	if ws != nil && m != nil && ws.Owns(m) {
		ws.Put(m)
	}
}

// coordMatrix converts points to an N×3 float32 feature matrix.
//
//edgepc:hotpath
func coordMatrix(ws *tensor.Workspace, pts []geom.Point3) *tensor.Matrix {
	m := wsGet(ws, len(pts), 3)
	for i, p := range pts {
		row := m.Row(i)
		row[0] = float32(p.X)
		row[1] = float32(p.Y)
		row[2] = float32(p.Z)
	}
	return m
}

// inputFeatures builds the level-0 feature matrix: coordinates, optionally
// concatenated with the cloud's own per-point features (RGB, intensity, …),
// whose width must match extraDim.
//
//edgepc:hotpath
func inputFeatures(ws *tensor.Workspace, pts []geom.Point3, feat []float32, featDim, extraDim int) (*tensor.Matrix, error) {
	coords := coordMatrix(ws, pts)
	if extraDim == 0 {
		return coords, nil
	}
	if featDim != extraDim {
		return nil, fmt.Errorf("model: network expects %d extra features per point, cloud has %d", extraDim, featDim)
	}
	extra, err := tensor.FromSlice(len(pts), featDim, feat)
	if err != nil {
		return nil, err
	}
	fused := wsGet(ws, len(pts), coords.Cols+featDim)
	if err := tensor.ConcatInto(fused, coords, extra); err != nil {
		return nil, err
	}
	wsPut(ws, coords)
	return fused, nil
}

// buildGroupedSA materializes the SetAbstraction grouping: for each query q
// (a sampled point) and neighbor slot j, row q*k+j holds
// [neighbor − center (3) | neighbor features (C)].
// nbr is flat q-major with indexes into the parent level.
//
//edgepc:hotpath
func buildGroupedSA(ws *tensor.Workspace, parentPts []geom.Point3, parentFeats *tensor.Matrix, centers []geom.Point3, nbr []int, k int) (*tensor.Matrix, error) {
	q := len(centers)
	if len(nbr) != q*k {
		return nil, fmt.Errorf("model: %d neighbor entries for %d queries × k=%d", len(nbr), q, k)
	}
	c := parentFeats.Cols
	out := wsGet(ws, q*k, 3+c)
	for i := 0; i < q; i++ {
		ctr := centers[i]
		for j := 0; j < k; j++ {
			n := nbr[i*k+j]
			if n < 0 || n >= len(parentPts) {
				return nil, fmt.Errorf("model: neighbor index %d out of %d points", n, len(parentPts))
			}
			row := out.Row(i*k + j)
			p := parentPts[n]
			row[0] = float32(p.X - ctr.X)
			row[1] = float32(p.Y - ctr.Y)
			row[2] = float32(p.Z - ctr.Z)
			copy(row[3:], parentFeats.Row(n))
		}
	}
	return out, nil
}

// groupedSABackward routes the gradient of the grouped matrix back to the
// parent feature matrix, taken from ws (the relative-coordinate columns carry
// no trainable gradient and are dropped).
func groupedSABackward(ws *tensor.Workspace, grad *tensor.Matrix, nbr []int, parentRows, parentCols int) (*tensor.Matrix, error) {
	if grad.Cols != 3+parentCols {
		return nil, fmt.Errorf("model: grouped grad has %d cols, expected %d", grad.Cols, 3+parentCols)
	}
	d := wsGet(ws, parentRows, parentCols)
	d.Zero()
	for r := 0; r < grad.Rows; r++ {
		n := nbr[r]
		src := grad.Row(r)[3:]
		dst := d.Row(n)
		for c, v := range src {
			dst[c] += v
		}
	}
	return d, nil
}

// buildGroupedEdge materializes the DGCNN EdgeConv grouping: row i*k+j holds
// [f_i | f_j − f_i] for neighbor j of point i. nbr indexes the same level.
// Rows fan out by the elements they write: each is copies and one float32
// subtraction per channel, so the split cannot show in a bit.
//
//edgepc:hotpath
func buildGroupedEdge(ws *tensor.Workspace, feats *tensor.Matrix, nbr []int, k int) (*tensor.Matrix, error) {
	n := feats.Rows
	if len(nbr) != n*k {
		return nil, fmt.Errorf("model: %d neighbor entries for %d points × k=%d", len(nbr), n, k)
	}
	for _, nj := range nbr {
		if nj < 0 || nj >= n {
			return nil, fmt.Errorf("model: edge neighbor %d out of %d points", nj, n)
		}
	}
	c := feats.Cols
	out := wsGet(ws, n*k, 2*c)
	e := edgeJobs.Get().(*edgeJob)
	e.feats, e.nbr, e.k, e.out = feats, nbr, k, out
	parallel.Split(n, parallel.WorkersFor(n*k*2*c, minGroupElems), e)
	*e = edgeJob{}
	edgeJobs.Put(e)
	return out, nil
}

// minGroupElems is the output elements that pay for a goroutine of
// buildGroupedEdge.
const minGroupElems = 1 << 16

// edgeJob is one buildGroupedEdge fan-out, pooled so that it allocates
// nothing.
type edgeJob struct {
	feats, out *tensor.Matrix
	nbr        []int
	k          int
}

var edgeJobs = sync.Pool{New: func() any { return new(edgeJob) }}

// Chunk writes the rows of points [lo, hi).
func (e *edgeJob) Chunk(lo, hi int) {
	c, k, f, out := e.feats.Cols, e.k, e.feats.Data, e.out.Data
	for i := lo; i < hi; i++ {
		fi := f[i*c : i*c+c]
		for j, nj := range e.nbr[i*k : i*k+k] {
			r := (i*k + j) * 2 * c
			left, right, fj := out[r:r+c], out[r+c:r+2*c], f[nj*c:nj*c+c]
			for t, v := range fi {
				left[t] = v
				right[t] = fj[t] - v
			}
		}
	}
}

// groupedEdgeBackward routes the gradient of the edge-grouped matrix back to
// the level features, taken from ws: the left half accumulates on i, the
// right half adds to j and subtracts from i.
func groupedEdgeBackward(ws *tensor.Workspace, grad *tensor.Matrix, nbr []int, n, c int) (*tensor.Matrix, error) {
	if grad.Cols != 2*c {
		return nil, fmt.Errorf("model: edge grad has %d cols, expected %d", grad.Cols, 2*c)
	}
	d := wsGet(ws, n, c)
	d.Zero()
	k := grad.Rows / n
	for i := 0; i < n; i++ {
		di := d.Data[i*c : i*c+c]
		for j, nj := range nbr[i*k : i*k+k] {
			r := (i*k + j) * 2 * c
			left, right, dj := grad.Data[r:r+c], grad.Data[r+c:r+2*c], d.Data[nj*c:nj*c+c]
			for t, v := range right {
				di[t] += left[t] - v
				dj[t] += v
			}
		}
	}
	return d, nil
}
