package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Linear is a fully connected layer y = x·W + b. Applied to a (points ×
// channels) activation it is the PointNet-family "shared MLP" / 1×1
// convolution: every point row is transformed by the same weights.
type Linear struct {
	W, B  *Param
	x     *tensor.Matrix // cached input for backward
	ws    *tensor.Workspace
	arena *tensor.Workspace
	grads *GradQueue // where Backward posts dW and the bias sums, when running
}

// NewLinear creates a Linear layer with He initialization.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		W: NewParam(name+".W", in, out),
		B: NewParam(name+".b", 1, out),
	}
	InitHe(l.W, in, rng)
	return l
}

// SetWorkspace implements WorkspaceUser.
func (l *Linear) SetWorkspace(ws *tensor.Workspace) { l.ws = ws }

// SetTrainArena implements TrainArenaUser.
func (l *Linear) SetTrainArena(a *tensor.Workspace) { l.arena, l.x = a, nil }

// SetGradQueue implements GradQueueUser.
func (l *Linear) SetGradQueue(q *GradQueue) { l.grads = q }

// Forward implements Layer. The x·W + b product is the layer's compute kernel:
// blocked's MatMulBiasInto, eval and train alike, with the bias an exact
// float32 add in its store. Its bits are the reference kernel's.
//
//edgepc:hotpath
func (l *Linear) Forward(x *tensor.Matrix, train bool) (*tensor.Matrix, error) {
	var y *tensor.Matrix
	if !train && l.ws != nil {
		y = l.ws.Get(x.Rows, l.W.Value.Cols)
	} else {
		var a *tensor.Workspace
		if train {
			l.x, a = x, l.arena
		}
		y = wsGet(a, x.Rows, l.W.Value.Cols)
	}
	if err := tensor.Blocked().MatMulBiasInto(y, x, l.W.Value, l.B.Value.Data); err != nil {
		return nil, fmt.Errorf("linear %s: %w", l.W.Name, err)
	}
	return y, nil
}

// Backward implements Layer: dx = grad·Wᵀ, and the parameter gradients
// (paramGrads) — posted to the attached GradQueue when it is running, inline
// otherwise.
func (l *Linear) Backward(grad *tensor.Matrix) (*tensor.Matrix, error) {
	return l.backward(grad, true)
}

// backward is Backward, computing dx only when input is set: the caller of a
// network's first layer reads no gradient of the network's input.
func (l *Linear) backward(grad *tensor.Matrix, input bool) (*tensor.Matrix, error) {
	if l.x == nil {
		return nil, fmt.Errorf("linear %s: backward before forward(train)", l.W.Name)
	}
	posted := l.grads.post(l, grad)
	if !posted {
		w := l.W.Value
		dW := wsGet(l.arena, w.Rows, w.Cols)
		err := l.paramGrads(dW, l.x, grad)
		wsPut(l.arena, dW)
		if err != nil {
			return nil, err
		}
	}
	var dx *tensor.Matrix
	if input {
		dx = wsGet(l.arena, grad.Rows, l.W.Value.Rows)
		if err := tensor.MatMulBTInto(dx, grad, l.W.Value); err != nil {
			return nil, err
		}
	}
	if !posted {
		wsPut(l.arena, grad)
	}
	return dx, nil
}

// paramGrads adds the layer's parameter gradients for input x and output
// gradient g: dW = xᵀ·g is summed from +0 into dW on its own and then added
// to W's gradient, which may already hold other samples' sums; the bias
// gradient adds g's rows onto b's in index order.
func (l *Linear) paramGrads(dW, x, g *tensor.Matrix) error {
	if err := tensor.MatMulATInto(dW, x, g); err != nil {
		return err
	}
	addInto(l.W.Grad.Data, dW.Data)
	addColSums(l.B.Grad.Data, g)
	return nil
}

// addInto adds src to dst element by element: whole 8-element strips on the
// vector kernel, the rest — and everything without AVX2 — in the loop it is
// tested against.
func addInto(dst, src []float32) {
	vn := 0
	if useAVX2 {
		vn = len(dst) &^ 7
		addAVX2(dst[:vn], src[:vn])
	}
	for i, v := range src[vn:len(dst)] {
		dst[vn+i] += v
	}
}

// addColSums adds g's rows onto sum in index order: whole 8-column strips on
// colStats' summing kernel, the ragged columns — and every column without
// AVX2 — in the loop it is tested against.
func addColSums(sum []float32, g *tensor.Matrix) {
	vc := 0
	if useAVX2 && g.Cols >= 8 {
		vc = g.Cols &^ 7
		colSumsAVX2(sum[:vc], nil, g, 0)
	}
	if rest := sum[vc:g.Cols]; len(rest) > 0 {
		for off := vc; off < len(g.Data); off += g.Cols {
			for j, v := range g.Data[off : off+len(rest)] {
				rest[j] += v
			}
		}
	}
}

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// ReLU is the rectified linear activation.
type ReLU struct {
	mask  []bool
	ws    *tensor.Workspace
	arena *tensor.Workspace
}

// SetWorkspace implements WorkspaceUser.
func (r *ReLU) SetWorkspace(ws *tensor.Workspace) { r.ws = ws }

// SetTrainArena implements TrainArenaUser.
func (r *ReLU) SetTrainArena(a *tensor.Workspace) { r.arena, r.mask = a, nil }

// Forward implements Layer.
//
//edgepc:hotpath
func (r *ReLU) Forward(x *tensor.Matrix, train bool) (*tensor.Matrix, error) {
	if !train && r.ws != nil {
		// Inference workspace mode: rectify workspace-owned inputs in place
		// (the previous layer's output is dead once we consume it); copy
		// caller-owned inputs into a workspace buffer first.
		out := x
		if !r.ws.Owns(x) {
			out = r.ws.Get(x.Rows, x.Cols)
			copy(out.Data, x.Data)
		}
		for i, v := range out.Data {
			if v <= 0 {
				out.Data[i] = 0
			}
		}
		return out, nil
	}
	var a *tensor.Workspace
	if train {
		a = r.arena
	}
	out := wsGet(a, x.Rows, x.Cols)
	copy(out.Data, x.Data)
	if train {
		if cap(r.mask) < len(out.Data) {
			//edgepc:lint-ignore hotpathalloc train-only mask buffer with a cap-guarded grow
			r.mask = make([]bool, len(out.Data))
		}
		r.mask = r.mask[:len(out.Data)]
	}
	for i, v := range out.Data {
		// v <= 0, not !(v > 0): a NaN passes, as in the workspace branch above
		// and in BatchNorm's fused pass — the three agree bit for bit.
		if v <= 0 {
			out.Data[i] = 0
		}
		if train {
			r.mask[i] = v > 0
		}
	}
	return out, nil
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Matrix) (*tensor.Matrix, error) {
	if len(r.mask) != len(grad.Data) {
		return nil, fmt.Errorf("relu: backward shape mismatch")
	}
	out := wsGet(r.arena, grad.Rows, grad.Cols)
	for i, g := range grad.Data {
		if !r.mask[i] {
			g = 0
		}
		out.Data[i] = g
	}
	wsPut(r.arena, grad)
	return out, nil
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// BatchNorm normalizes each channel over the row (point) dimension, with
// learnable scale/shift.
//
// Because this library processes one cloud at a time (the row dimension is
// *points of one cloud*, not a batch of independent clouds), inference also
// normalizes with the current input's statistics whenever it has more than
// one row — per-cloud (instance) normalization, the consistent counterpart
// of what training computes. A single-row input (e.g. a globally pooled
// classification feature) falls back to the running statistics.
//
// With a workspace the multi-row eval path is normalize: column-owned
// statistics, then one row-chunked pass, which inside a Sequential's Linear →
// BatchNorm → ReLU triple also rectifies, in place on the Linear's buffer,
// and max-pools — the layer-by-layer float32 operations, in the same order.
type BatchNorm struct {
	Gamma, Beta             *Param
	RunningMean, RunningVar []float32
	Momentum                float32
	Eps                     float32

	// Backward caches of the last train-mode Forward: its input, its
	// statistics (mean | invStd | variance, C each) and whether a Sequential
	// folded the ReLU after it in.
	x     *tensor.Matrix
	stats []float32
	relu  bool

	ws, arena *tensor.Workspace
}

// SetWorkspace implements WorkspaceUser.
func (bn *BatchNorm) SetWorkspace(ws *tensor.Workspace) { bn.ws = ws }

// SetTrainArena implements TrainArenaUser.
func (bn *BatchNorm) SetTrainArena(a *tensor.Workspace) {
	bn.arena, bn.x, bn.stats, bn.relu = a, nil, nil, false
}

// NewBatchNorm creates a BatchNorm over `channels` columns.
func NewBatchNorm(name string, channels int) *BatchNorm {
	bn := &BatchNorm{
		Gamma:       NewParam(name+".gamma", 1, channels),
		Beta:        NewParam(name+".beta", 1, channels),
		RunningMean: make([]float32, channels),
		RunningVar:  make([]float32, channels),
		Momentum:    0.1,
		Eps:         1e-5,
	}
	for i := range bn.Gamma.Value.Data {
		bn.Gamma.Value.Data[i] = 1
		bn.RunningVar[i] = 1
	}
	return bn
}

// Forward implements Layer.
func (bn *BatchNorm) Forward(x *tensor.Matrix, train bool) (*tensor.Matrix, error) {
	c := x.Cols
	if c != len(bn.RunningMean) {
		return nil, fmt.Errorf("batchnorm %s: %d channels, expected %d", bn.Gamma.Name, c, len(bn.RunningMean))
	}
	if !train && bn.ws != nil {
		return bn.forwardWS(x)
	}
	var a *tensor.Workspace
	if train {
		a = bn.arena
	}
	out := wsGet(a, x.Rows, c)
	if !train && x.Rows == 1 {
		for r := 0; r < x.Rows; r++ {
			xr, or := x.Row(r), out.Row(r)
			for j := 0; j < c; j++ {
				inv := 1 / float32(math.Sqrt(float64(bn.RunningVar[j]+bn.Eps)))
				or[j] = float32(bn.Gamma.Value.Data[j]*(xr[j]-bn.RunningMean[j])*inv) + bn.Beta.Value.Data[j]
			}
		}
		return out, nil
	}
	bn.forwardBatch(out, x, train, false)
	return out, nil
}

// forwardBatch normalizes x with its own statistics into out, rectifying when
// relu is set: normalize's sweeps, so the bits are the workspace path's. In
// train mode it also keeps what Backward reads — x itself, from which
// Backward recomputes x̂ and the output with the same roundings, rather than a
// copy of x̂ and a ReLU mask — and updates the running statistics.
func (bn *BatchNorm) forwardBatch(out, x *tensor.Matrix, train, relu bool) {
	c := x.Cols
	stats := bn.stats
	if !train || cap(stats) < 3*c {
		stats = make([]float32, 3*c)
	}
	stats = stats[:3*c]
	mean, invStd, variance := stats[:c], stats[c:2*c], stats[2*c:]
	bn.sweep(out, x, mean, invStd, variance, relu, 1)
	if !train {
		return
	}
	bn.x, bn.stats, bn.relu = x, stats, relu
	for j := 0; j < c; j++ {
		bn.RunningMean[j] = float32((1-bn.Momentum)*bn.RunningMean[j]) + float32(bn.Momentum*mean[j])
		bn.RunningVar[j] = float32((1-bn.Momentum)*bn.RunningVar[j]) + float32(bn.Momentum*variance[j])
	}
}

// forwardWS is the inference path backed by the workspace: same statistics
// and per-element arithmetic as the allocating path (bit-identical output),
// but activations and scratch come from the workspace and x̂ is never
// materialized (no backward pass will consume it).
//
//edgepc:hotpath
func (bn *BatchNorm) forwardWS(x *tensor.Matrix) (*tensor.Matrix, error) {
	c := x.Cols
	out := bn.ws.Get(x.Rows, c)
	if x.Rows == 1 {
		xr, or := x.Row(0), out.Row(0)
		for j := 0; j < c; j++ {
			inv := 1 / float32(math.Sqrt(float64(bn.RunningVar[j]+bn.Eps)))
			or[j] = float32(bn.Gamma.Value.Data[j]*(xr[j]-bn.RunningMean[j])*inv) + bn.Beta.Value.Data[j]
		}
		return out, nil
	}
	bn.normalize(out, x, false, 1)
	return out, nil
}

// Fan-out of normalize's sweeps: a goroutine takes at least minSweepElems
// elements (on the 2-core reference host starting one for fewer costs more
// than it saves), minStatCols statistics columns and minApplyRows rows. The
// first two belong to the kernel that runs, so they are set where the probe's
// answer is read: the AVX2 sweeps pass about 2.4 elements per ns, three
// passes counted, where the Go loops pass 0.5, and a statistics goroutine
// with fewer than 16 columns walks every row of x for half a strip — as long
// as one goroutine takes for both halves.
const minApplyRows = 8

var (
	useAVX2       = tensor.HasAVX2()
	minSweepElems = 1 << 14
	minStatCols   = 4
)

func init() {
	if useAVX2 {
		minSweepElems, minStatCols = 1<<18, 16
	}
}

// normalize is the multi-row eval kernel: dst row g is the per-channel
// maximum over x rows [g·k, (g+1)·k) of γ·((x−mean)·invStd)+β, rectified
// first when relu is set. k = 1 pools nothing, and then dst may be x itself.
//
//edgepc:hotpath
func (bn *BatchNorm) normalize(dst, x *tensor.Matrix, relu bool, k int) {
	stats := bn.ws.Get(2, x.Cols)
	bn.sweep(dst, x, stats.Row(0), stats.Row(1), nil, relu, k)
	bn.ws.Put(stats)
}

// sweep fills mean, invStd and, when non-nil, variance from x, then writes
// normalize's dst from them. Neither fan-out touches numerics: statistics are
// partitioned by column, a goroutine walking all rows of its columns in index
// order, so each sum is the serial one on any core count; the apply pass is
// element-wise by rows.
//
//edgepc:hotpath
func (bn *BatchNorm) sweep(dst, x *tensor.Matrix, mean, invStd, variance []float32, relu bool, k int) {
	c := x.Cols
	fan := parallel.WorkersFor(len(x.Data), minSweepElems)
	if w := min(fan, c/minStatCols); w > 1 {
		parallel.ForSplit(c, w, func(lo, hi int) { bn.colStats(x, mean, invStd, variance, lo, hi) })
	} else {
		bn.colStats(x, mean, invStd, variance, 0, c)
	}
	if w := min(fan, dst.Rows/minApplyRows); w > 1 {
		parallel.ForSplit(dst.Rows, w, func(lo, hi int) { bn.apply(dst, x, mean, invStd, relu, k, lo, hi) })
	} else {
		bn.apply(dst, x, mean, invStd, relu, k, 0, dst.Rows)
	}
}

// colStats fills mean[lo:hi], invStd[lo:hi] and, when non-nil,
// variance[lo:hi] from columns [lo, hi) of x: mean = Σx / n,
// variance = Σ(x−mean)² / n, both over rows in index order,
// invStd = 1/√(variance+ε). It sums 32 columns at a time on its own stack:
// in the shared statistics row two goroutines' adjacent ranges would share a
// cache line, and every add would bounce it between cores.
//
//edgepc:hotpath
func (bn *BatchNorm) colStats(x *tensor.Matrix, mean, invStd, variance []float32, lo, hi int) {
	c, n := x.Cols, float32(x.Rows)
	var mbuf, vbuf [32]float32
	for b := lo; b < hi; b += len(mbuf) {
		w := min(len(mbuf), hi-b)
		m, v := mbuf[:w], vbuf[:w]
		clear(m)
		clear(v)
		// Whole 8-lane strips go to the vector kernel, the rest to the loops
		// it is tested against.
		vw := 0
		if useAVX2 && w >= 8 {
			vw = w &^ 7
			colSumsAVX2(m[:vw], nil, x, b)
		}
		if mt := m[vw:]; len(mt) > 0 {
			for off := b + vw; off < len(x.Data); off += c {
				for j, xv := range x.Data[off : off+len(mt)] {
					mt[j] += xv
				}
			}
		}
		for j := range m {
			m[j] /= n
		}
		if vw > 0 {
			colSumsAVX2(v[:vw], m[:vw], x, b)
		}
		if mt, vt := m[vw:], v[vw:]; len(vt) > 0 {
			for off := b + vw; off < len(x.Data); off += c {
				for j, xv := range x.Data[off : off+len(vt)] {
					d := xv - mt[j]
					vt[j] += float32(d * d)
				}
			}
		}
		for j := range v {
			v[j] /= n
			invStd[b+j] = 1 / float32(math.Sqrt(float64(v[j]+bn.Eps)))
		}
		copy(mean[b:], m)
		if variance != nil {
			copy(variance[b:], v)
		}
	}
}

// apply writes dst rows [lo, hi) of normalize. A group's first row seeds the
// maximum and a later one replaces it only when strictly greater —
// tensor.MaxPoolGroupsInto's rule, so a NaN is kept or skipped as there.
//
//edgepc:hotpath
func (bn *BatchNorm) apply(dst, x *tensor.Matrix, mean, invStd []float32, relu bool, k, lo, hi int) {
	c, vc := x.Cols, 0
	gamma, beta := bn.Gamma.Value.Data[:c], bn.Beta.Value.Data[:c]
	mean, invStd = mean[:c], invStd[:c]
	if useAVX2 && c >= 8 {
		vc = c &^ 7
		applyAVX2(dst, x, gamma, beta, mean, invStd, relu, k, lo, hi, vc)
		if vc == c {
			return
		}
	}
	// Columns [vc, c): all of them without the vector kernel.
	gamma, beta, mean, invStd = gamma[vc:], beta[vc:], mean[vc:], invStd[vc:]
	for r := lo * k; r < hi*k; r++ {
		or, first := dst.Data[r/k*c+vc:][:c-vc], r%k == 0
		for j, xv := range x.Data[r*c+vc:][:c-vc] {
			v := float32(gamma[j]*((xv-mean[j])*invStd[j])) + beta[j]
			if relu {
				v = rectify(v)
			}
			if !first {
				v = greater(v, or[j])
			}
			or[j] = v
		}
	}
}

// rectify is ReLU's rule (v <= 0 → +0; a NaN passes) and greater max-pool's
// (v replaces cur only when v > cur), each spelled as a select on the bit
// pattern, which compiles to an integer conditional move: both go each way
// half the time, and a branch on the float mispredicted at every other
// element (sa0: 8.4 → 5.0 ms). Folding the two into one helper taking the
// condition as a bool brings the branches back.
//
//edgepc:hotpath
func rectify(v float32) float32 {
	b := math.Float32bits(v)
	if v <= 0 {
		b = 0
	}
	return math.Float32frombits(b)
}

//edgepc:hotpath
func greater(v, cur float32) float32 {
	b := math.Float32bits(cur)
	if v > cur {
		b = math.Float32bits(v)
	}
	return math.Float32frombits(b)
}

// Backward implements Layer. x̂ is recomputed from the cached input as
// Forward rounded it; with a folded ReLU so is the output, and the incoming
// gradient is zeroed where that is not > 0: ReLU.Backward's mask, which a NaN
// does not pass either. Two passes, neither of which changes a bit with the
// core count: gradSums sums Σg and Σg·x̂ per column over the rows in index
// order, fanned out by column as colStats is; gradApply writes
// ((γ·invStd)/n)·((n·g − Σg) − x̂·Σg·x̂), fanned out by row.
func (bn *BatchNorm) Backward(grad *tensor.Matrix) (*tensor.Matrix, error) {
	x := bn.x
	if x == nil || grad.Rows != x.Rows || grad.Cols != x.Cols {
		return nil, fmt.Errorf("batchnorm %s: backward before forward(train)", bn.Gamma.Name)
	}
	c := grad.Cols
	sums := wsGet(bn.arena, 3, c)
	p := gradParams{
		mean: bn.stats[:c], invStd: bn.stats[c : 2*c],
		gamma: bn.Gamma.Value.Data[:c], beta: bn.Beta.Value.Data[:c],
		sumG: sums.Row(0), sumGH: sums.Row(1), scale: sums.Row(2),
		n: float32(grad.Rows),
	}
	fan := parallel.WorkersFor(len(x.Data), minSweepElems)
	if w := min(fan, c/minStatCols); w > 1 {
		q := p // the closure's own copy: p stays on the stack when nothing fans out
		parallel.ForSplit(c, w, func(lo, hi int) { bn.gradSums(x, grad, &q, lo, hi) })
	} else {
		bn.gradSums(x, grad, &p, 0, c)
	}
	for j := range p.scale {
		bn.Beta.Grad.Data[j] += p.sumG[j]
		bn.Gamma.Grad.Data[j] += p.sumGH[j]
		p.scale[j] = p.gamma[j] * p.invStd[j] / p.n
	}
	out := wsGet(bn.arena, grad.Rows, c)
	if w := min(fan, grad.Rows/minApplyRows); w > 1 {
		q := p
		parallel.ForSplit(grad.Rows, w, func(lo, hi int) { bn.gradApply(out, x, grad, &q, lo, hi) })
	} else {
		bn.gradApply(out, x, grad, &p, 0, grad.Rows)
	}
	wsPut(bn.arena, sums)
	wsPut(bn.arena, grad)
	return out, nil
}

// gradParams are the per-column operands of BatchNorm.Backward's passes: the
// forward statistics and parameters, what the first pass sums and the second
// pass's scale (γ·invStd)/n, n the row count.
type gradParams struct {
	mean, invStd, gamma, beta []float32
	sumG, sumGH, scale        []float32
	n                         float32
}

// gradSums fills p.sumG and p.sumGH for columns [lo, hi): Σg and Σg·x̂ over
// the rows in index order, g zeroed where a folded ReLU's output is not > 0.
// Whole 8-column strips go to the vector kernel, the rest to the loop it is
// tested against; like colStats it sums 32 columns at a time on its own
// stack, so two goroutines' adjacent ranges never share a cache line.
func (bn *BatchNorm) gradSums(x, g *tensor.Matrix, p *gradParams, lo, hi int) {
	c := x.Cols
	var gbuf, hbuf [32]float32
	for b := lo; b < hi; b += len(gbuf) {
		w := min(len(gbuf), hi-b)
		sg, sgh := gbuf[:w], hbuf[:w]
		clear(sg)
		clear(sgh)
		vw := 0
		if useAVX2 && w >= 8 {
			vw = w &^ 7
			gradSumsAVX2(sg[:vw], sgh[:vw], x, g, p.mean[b:b+vw], p.invStd[b:b+vw], p.gamma[b:b+vw], p.beta[b:b+vw], b, bn.relu)
		}
		if tw := w - vw; tw > 0 {
			b0 := b + vw
			mean, invStd, gamma, beta := p.mean[b0:b0+tw], p.invStd[b0:b0+tw], p.gamma[b0:b0+tw], p.beta[b0:b0+tw]
			tg, th := sg[vw:], sgh[vw:]
			for off := b0; off < len(x.Data); off += c {
				xr := x.Data[off : off+tw]
				for j, gv := range g.Data[off : off+tw] {
					h := (xr[j] - mean[j]) * invStd[j]
					if bn.relu {
						gv = passed(gv, float32(gamma[j]*h)+beta[j])
					}
					tg[j] += gv
					th[j] += float32(gv * h)
				}
			}
		}
		copy(p.sumG[b:], sg)
		copy(p.sumGH[b:], sgh)
	}
}

// gradApply writes dst rows [lo, hi) of BatchNorm.Backward's second pass,
// with g masked and x̂ recomputed as in gradSums.
func (bn *BatchNorm) gradApply(dst, x, g *tensor.Matrix, p *gradParams, lo, hi int) {
	c, vc := x.Cols, 0
	if useAVX2 && c >= 8 {
		vc = c &^ 7
		gradApplyAVX2(dst, x, g, p, bn.relu, lo, hi, vc)
		if vc == c {
			return
		}
	}
	// Columns [vc, c): all of them without the vector kernel.
	tw := c - vc
	mean, invStd, gamma, beta := p.mean[vc:c], p.invStd[vc:c], p.gamma[vc:c], p.beta[vc:c]
	scale, sumG, sumGH := p.scale[vc:c], p.sumG[vc:c], p.sumGH[vc:c]
	for r := lo; r < hi; r++ {
		off := r*c + vc
		or, xr := dst.Data[off:off+tw], x.Data[off:off+tw]
		for j, gv := range g.Data[off : off+tw] {
			h := (xr[j] - mean[j]) * invStd[j]
			if bn.relu {
				gv = passed(gv, float32(gamma[j]*h)+beta[j])
			}
			or[j] = scale[j] * (float32(p.n*gv) - sumG[j] - float32(h*sumGH[j]))
		}
	}
}

// passed is ReLU's backward rule as a select: the gradient g where the
// normalised value y is > 0, else +0.
func passed(g, y float32) float32 {
	b := math.Float32bits(g)
	if !(y > 0) {
		b = 0
	}
	return math.Float32frombits(b)
}

// Params implements Layer.
func (bn *BatchNorm) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// Dropout zeroes activations with probability P during training, scaling the
// survivors by 1/(1−P); it is the identity during inference.
type Dropout struct {
	P    float64
	Rng  *rand.Rand
	mask []bool

	arena *tensor.Workspace
}

// SetTrainArena implements TrainArenaUser.
func (d *Dropout) SetTrainArena(a *tensor.Workspace) { d.arena, d.mask = a, nil }

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Matrix, train bool) (*tensor.Matrix, error) {
	if !train || d.P <= 0 {
		d.mask = nil
		return x, nil
	}
	if d.Rng == nil {
		d.Rng = rand.New(rand.NewSource(1))
	}
	out := wsGet(d.arena, x.Rows, x.Cols)
	if cap(d.mask) < len(out.Data) {
		d.mask = make([]bool, len(out.Data))
	}
	d.mask = d.mask[:len(out.Data)]
	scale := float32(1 / (1 - d.P))
	for i, v := range x.Data {
		if d.Rng.Float64() < d.P {
			out.Data[i] = 0
			d.mask[i] = false
		} else {
			out.Data[i] = v * scale
			d.mask[i] = true
		}
	}
	return out, nil
}

// Backward implements Layer.
func (d *Dropout) Backward(grad *tensor.Matrix) (*tensor.Matrix, error) {
	if d.mask == nil {
		return grad, nil
	}
	if len(d.mask) != len(grad.Data) {
		return nil, fmt.Errorf("dropout: backward shape mismatch")
	}
	out := wsGet(d.arena, grad.Rows, grad.Cols)
	scale := float32(1 / (1 - d.P))
	for i, g := range grad.Data {
		if d.mask[i] {
			out.Data[i] = g * scale
		} else {
			out.Data[i] = 0
		}
	}
	wsPut(d.arena, grad)
	return out, nil
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// Sequential chains layers.
type Sequential struct {
	Layers []Layer

	ws, arena *tensor.Workspace
}

// NewSequential builds a chain.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// SetWorkspace implements WorkspaceUser, recursing into every child layer
// that supports workspace-backed inference.
func (s *Sequential) SetWorkspace(ws *tensor.Workspace) {
	s.ws = ws
	AttachWorkspace(ws, s.Layers...)
}

// SetTrainArena implements TrainArenaUser, recursing into every child layer
// that takes its train-mode buffers from an arena.
func (s *Sequential) SetTrainArena(a *tensor.Workspace) {
	s.arena = a
	AttachTrainArena(a, s.Layers...)
}

// SetGradQueue implements GradQueueUser, recursing into every child layer
// that takes one.
func (s *Sequential) SetGradQueue(q *GradQueue) { AttachGradQueue(q, s.Layers...) }

// Forward implements Layer.
//
//edgepc:hotpath
func (s *Sequential) Forward(x *tensor.Matrix, train bool) (*tensor.Matrix, error) {
	return s.forward(x, train, 0)
}

// ForwardPooled is the workspace inference pass over a grouped (Q·k × C) input
// followed by a max-pool of each group of k consecutive rows: bit for bit what
// tensor.MaxPoolGroupsInto makes of Forward(x, false). When the chain ends in
// a Linear → BatchNorm → ReLU triple, as every shared MLP does, the pool rides
// in the triple's last pass and the normalised (Q·k × C) tensor is never
// written, only the (Q × C) result. Training pools separately (backward wants
// the argmax).
//
//edgepc:hotpath
func (s *Sequential) ForwardPooled(x *tensor.Matrix, k int) (*tensor.Matrix, error) {
	if s.ws == nil || k <= 0 || x.Rows%k != 0 {
		return nil, errPooled
	}
	return s.forward(x, false, k)
}

// errPooled is static: formatting operands would be heap escapes on a hot path.
var errPooled = errors.New("nn: ForwardPooled needs a workspace and rows in whole groups of k")

// forward chains the layers; k > 0 max-pools the output over groups of k
// rows. Workspace inference recycles each intermediate as it dies and runs a
// Linear → BatchNorm → ReLU triple over more than one row as one block: the
// GEMM stores x·W + b into a workspace buffer and BatchNorm.normalize
// rectifies it in place — or, on the chain's last triple when pooling, into
// the (rows/k × C) result.
//
//edgepc:hotpath
func (s *Sequential) forward(x *tensor.Matrix, train bool, k int) (*tensor.Matrix, error) {
	cur, fuse := x, !train && s.ws != nil
	for i := 0; i < len(s.Layers); i++ {
		y, err := s.Layers[i].Forward(cur, train)
		if err != nil {
			return nil, err
		}
		bn := s.tripleAt(i, y)
		if train && bn != nil {
			// Train mode folds the ReLU into the BatchNorm: one output
			// buffer, and Backward skips the ReLU (see Sequential.Backward).
			out := wsGet(s.arena, y.Rows, y.Cols)
			bn.forwardBatch(out, y, true, true)
			i += 2
			y = out
		} else if fuse && bn != nil && y.Rows > 1 && s.ws.Owns(y) && bn.ws == s.ws {
			if i += 2; k > 0 && i+1 == len(s.Layers) {
				s.recycle(cur, x)
				cur, y = y, s.ws.Get(y.Rows/k, y.Cols)
				bn.normalize(y, cur, true, k)
				k = 0 // pooled: nothing left for the tail
			} else {
				bn.normalize(y, y, true, 1)
			}
		}
		// The intermediate a layer consumed is dead; layers that return
		// their input (in-place ReLU, eval Dropout) keep it alive.
		if fuse && y != cur {
			s.recycle(cur, x)
		}
		cur = y
	}
	if k > 0 {
		out := s.ws.Get(cur.Rows/k, cur.Cols)
		if err := tensor.MaxPoolGroupsInto(out, nil, cur, k); err != nil {
			return nil, err
		}
		s.recycle(cur, x)
		cur = out
	}
	return cur, nil
}

// recycle returns a dead intermediate to the workspace — unless it is the
// chain input x, which belongs to the caller, or not a workspace buffer.
func (s *Sequential) recycle(m, x *tensor.Matrix) {
	if m != x && s.ws.Owns(m) {
		s.ws.Put(m)
	}
}

// tripleAt returns the BatchNorm of a Linear → BatchNorm → ReLU block whose
// Linear, layer i, has just produced y: nil unless the BatchNorm has y's width
// and a ReLU follows. Training folds the ReLU into every such block; the
// workspace eval pass fuses it when y is a workspace buffer of more than one
// row (one row takes BatchNorm's running-statistics form).
func (s *Sequential) tripleAt(i int, y *tensor.Matrix) *BatchNorm {
	if i+2 >= len(s.Layers) {
		return nil
	}
	_, isLinear := s.Layers[i].(*Linear)
	bn, isBN := s.Layers[i+1].(*BatchNorm)
	_, isReLU := s.Layers[i+2].(*ReLU)
	if !isLinear || !isBN || !isReLU || len(bn.RunningMean) != y.Cols {
		return nil
	}
	return bn
}

// Backward implements Layer.
func (s *Sequential) Backward(grad *tensor.Matrix) (*tensor.Matrix, error) {
	return s.backward(grad, true)
}

// BackwardParams is Backward for a chain whose input gradient nobody reads
// (a network's first layers, over the cloud's own features): every parameter
// gradient accumulates as Backward's would, and a first Linear layer computes
// no dx. It returns nothing; any input gradient a first layer of another kind
// returns goes back to the arena.
func (s *Sequential) BackwardParams(grad *tensor.Matrix) error {
	g, err := s.backward(grad, false)
	if err == nil {
		wsPut(s.arena, g)
	}
	return err
}

func (s *Sequential) backward(grad *tensor.Matrix, input bool) (*tensor.Matrix, error) {
	var err error
	for i := len(s.Layers) - 1; i >= 0; i-- {
		if _, isReLU := s.Layers[i].(*ReLU); isReLU && i > 0 {
			if bn, isBN := s.Layers[i-1].(*BatchNorm); isBN && bn.relu {
				continue // folded into the BatchNorm's Backward
			}
		}
		if l, isLinear := s.Layers[i].(*Linear); isLinear && i == 0 {
			grad, err = l.backward(grad, input)
		} else {
			grad, err = s.Layers[i].Backward(grad)
		}
		if err != nil {
			return nil, err
		}
	}
	return grad, nil
}

// Params implements Layer.
func (s *Sequential) Params() []*Param { return CollectParams(s.Layers...) }

// NewSharedMLP builds the PointNet-family per-point MLP block: a stack of
// Linear → BatchNorm → ReLU for each requested width. dims[0] is the input
// width.
func NewSharedMLP(name string, dims []int, rng *rand.Rand) *Sequential {
	var layers []Layer
	for i := 1; i < len(dims); i++ {
		layers = append(layers,
			NewLinear(fmt.Sprintf("%s.%d", name, i-1), dims[i-1], dims[i], rng),
			NewBatchNorm(fmt.Sprintf("%s.%d.bn", name, i-1), dims[i]),
			&ReLU{},
		)
	}
	return NewSequential(layers...)
}
