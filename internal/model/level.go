package model

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// level is the per-resolution state flowing through a hierarchical
// point-cloud network: the points at this resolution, their feature matrix,
// and whether the point order is Morton-sorted (index-based operations are
// only valid on sorted levels).
//
// A key property the EdgePC design exploits: uniform-stride sampling of a
// Morton-sorted level yields positions in ascending order, so the *sampled
// subset is itself Morton-sorted* — deeper modules may keep using index-based
// operations without re-sorting.
type level struct {
	pts          []geom.Point3
	feats        *tensor.Matrix // len(pts) × C
	mortonSorted bool
	// posInParent holds, for each point of this level, its index in the
	// parent level's order (ascending when both levels are Morton-sorted).
	// nil for the input level.
	posInParent []int
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
// whose width must match extraDim. The concat dispatches through the frame's
// compute backend (be must be non-nil; Exec.Backend always is).
//
//edgepc:hotpath
func inputFeatures(ws *tensor.Workspace, be tensor.Backend, pts []geom.Point3, feat []float32, featDim, extraDim int) (*tensor.Matrix, error) {
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
	if err := be.ConcatInto(fused, coords, extra); err != nil {
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
//
//edgepc:hotpath
func buildGroupedEdge(ws *tensor.Workspace, feats *tensor.Matrix, nbr []int, k int) (*tensor.Matrix, error) {
	n := feats.Rows
	if len(nbr) != n*k {
		return nil, fmt.Errorf("model: %d neighbor entries for %d points × k=%d", len(nbr), n, k)
	}
	c := feats.Cols
	out := wsGet(ws, n*k, 2*c)
	for i := 0; i < n; i++ {
		fi := feats.Row(i)
		for j := 0; j < k; j++ {
			nj := nbr[i*k+j]
			if nj < 0 || nj >= n {
				return nil, fmt.Errorf("model: edge neighbor %d out of %d points", nj, n)
			}
			row := out.Row(i*k + j)
			copy(row[:c], fi)
			fj := feats.Row(nj)
			for t := 0; t < c; t++ {
				row[c+t] = fj[t] - fi[t]
			}
		}
	}
	return out, nil
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
		di := d.Row(i)
		for j := 0; j < k; j++ {
			row := grad.Row(i*k + j)
			nj := nbr[i*k+j]
			dj := d.Row(nj)
			for t := 0; t < c; t++ {
				di[t] += row[t] - row[c+t]
				dj[t] += row[c+t]
			}
		}
	}
	return d, nil
}

// featKNN performs exact k-nearest-neighbor search in feature space (rows of
// feats), the SOTA searcher of DGCNN's deeper EdgeConv modules where
// "distance between points are measured using the features" (§5.2.3). The
// query set is all rows; self is included as the first neighbor. O(N²·C).
//
// A candidate's distance is the float32 difference of each channel, widened,
// squared and summed in float64 in channel order, and it replaces the current
// k-th best only when not ≥ it (so a NaN distance gets in), ties going to the
// lower index. With AVX2 the candidates are lanes of a channel-major copy of
// feats, eight at a time, and a block with a survivor goes, lane by lane in
// ascending order, through the same scalar insert as the Go loop: a block
// tested against the threshold of its start only lets through what the insert
// then re-checks. When every feature is finite each term is a non-negative
// number and a partial sum never exceeds the whole one, so both forms stop
// summing a candidate once its partial sum is ≥ the k-th best; a NaN or Inf
// anywhere (Inf − Inf is NaN) turns that early exit off.
//
//edgepc:hotpath
func featKNN(ws *tensor.Workspace, feats *tensor.Matrix, k int) []int {
	n, c := feats.Rows, feats.Cols
	if k > n {
		k = n
	}
	//edgepc:lint-ignore hotpathalloc known per-frame O(N·k) index buffer; candidate for future workspace management
	out := make([]int, n*k)
	early := true
	for _, v := range feats.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			early = false
			break
		}
	}
	var ft *tensor.Matrix
	vn := 0
	if knnAVX2 && n >= 8 && c > 0 {
		vn = n &^ 7
		ft = wsGet(ws, c, n)
		for i := 0; i < n; i++ {
			for t, v := range feats.Row(i) {
				ft.Data[t*n+i] = v
			}
		}
	}
	parallel.ForChunks(n, func(lo, hi int) {
		//edgepc:lint-ignore hotpathalloc per-chunk heap scratch, O(k), a handful per frame
		d := make([]float64, k)
		//edgepc:lint-ignore hotpathalloc per-chunk heap scratch, O(k), a handful per frame
		idx := make([]int, k)
		var lanes [8]float64
		for i := lo; i < hi; i++ {
			fi := feats.Row(i)
			for t := range d {
				d[t] = 1e300
				idx[t] = -1
			}
			j := 0
			for j < vn {
				off := knnScanAVX2(&lanes, fi, ft.Data[j:], vn-j, n, d[k-1], early)
				if j += off; j == vn {
					break
				}
				for l, dist := range lanes {
					knnInsert(d, idx, j+l, dist)
				}
				j += 8
			}
			for ; j < n; j++ {
				fj := feats.Row(j)[:len(fi)]
				thr := d[k-1]
				var dist float64
				for t, v := range fi {
					dv := float64(v - fj[t])
					dist += float64(dv * dv)
					if early && dist >= thr {
						break
					}
				}
				knnInsert(d, idx, j, dist)
			}
			copy(out[i*k:(i+1)*k], idx)
		}
	})
	wsPut(ws, ft)
	return out
}

// knnInsert places candidate j at distance dist into the ascending top-k
// lists d, idx unless dist ≥ the k-th best; an equal distance goes after the
// ones already there, so ties keep the lower index.
//
//edgepc:hotpath
func knnInsert(d []float64, idx []int, j int, dist float64) {
	k := len(d)
	if dist >= d[k-1] {
		return
	}
	t := k - 1
	for t > 0 && d[t-1] > dist {
		d[t] = d[t-1]
		idx[t] = idx[t-1]
		t--
	}
	d[t] = dist
	idx[t] = j
}

// knnAVX2 is the answer of tensor's one CPUID probe: whether featKNN scans
// candidates eight lanes at a time or with the Go loop alone.
var knnAVX2 = tensor.HasAVX2()
