package tensor

import "repro/internal/parallel"

// Int8Backend is the quantized inference backend: MatMulInto runs in 8-bit
// integer arithmetic with symmetric max-abs scales — per *channel* (output
// column) for the right operand, calibrated once from the trained weight
// values and cached for the life of those weights, and per *row* for the left
// operand (activations), computed fresh every call because activations change
// every frame. Products are accumulated at integer precision and dequantized
// back to float32 at the kernel exit, which is a stage boundary in the model
// graph — everything downstream of the matmul (bias, batch-norm, pooling,
// concat) runs exact float32, so quantization error never compounds through
// the data-movement kernels.
//
// The integer accumulation is carried in float32: every partial product is an
// integer of magnitude ≤ 127·127, so sums stay exactly representable while
// the shared dimension is ≤ 1040 (2²⁴/127²) — far beyond the channel widths
// these networks use. Accumulation is therefore deterministic, independent of
// the parallel row split.
//
// The weight-scale cache is keyed by the weight matrix pointer. Caching
// *activations* this way would be a bug — workspace buffers are recycled
// between frames — but weight matrices live for the process, and
// nn.ShareParams/retraining swap in fresh *Matrix values, which miss the
// cache and re-calibrate naturally. Call Invalidate after mutating weight
// values in place (a checkpoint loaded into an already-warm net).
//
// Concurrency: per-instance scratch — one Int8Backend per replica/goroutine
// (tensor.NewBackend returns a fresh instance per call for exactly this
// reason).
type Int8Backend struct {
	weights map[*Matrix]*int8Weights

	// Per-call activation scratch, grown cap-guarded and reused across
	// frames.
	qa     []int8
	scaleA []float32
}

type int8Weights struct {
	q     []int8    // row-major, same layout as the source matrix
	scale []float32 // per column: dequantization scale
}

// NewInt8 returns a fresh quantized backend with empty calibration state.
func NewInt8() *Int8Backend {
	return &Int8Backend{weights: make(map[*Matrix]*int8Weights)}
}

// Name implements Backend.
func (be *Int8Backend) Name() string { return BackendInt8 }

// Invalidate drops all cached weight quantizations; the next MatMulInto
// re-calibrates from the current weight values.
func (be *Int8Backend) Invalidate() {
	for k := range be.weights {
		delete(be.weights, k)
	}
}

// quantizeRow quantizes src with a symmetric max-abs scale, writing the int8
// codes to dst and returning the scale (0 for an all-zero row, whose codes
// are all 0).
func quantizeRow(dst []int8, src []float32) float32 {
	var maxAbs float32
	for _, v := range src {
		if v < 0 {
			v = -v
		}
		if v > maxAbs {
			maxAbs = v
		}
	}
	if maxAbs == 0 {
		for i := range dst[:len(src)] {
			dst[i] = 0
		}
		return 0
	}
	scale := maxAbs / 127
	inv := 127 / maxAbs
	for i, v := range src {
		dst[i] = roundInt8(float32(v * inv))
	}
	return scale
}

// roundInt8 rounds half away from zero and clamps to the symmetric code
// range [-127, 127].
func roundInt8(v float32) int8 {
	if v >= 0 {
		v += 0.5
		if v > 127 {
			return 127
		}
		return int8(v)
	}
	v -= 0.5
	if v < -127 {
		return -127
	}
	return int8(v)
}

// QuantizeInt8 quantizes one channel symmetrically (max-abs scale, codes in
// [-127, 127]) and returns the scale; DequantizeInt8 inverts it. Round-trip
// error is bounded by scale/2 per element (the property test pins this).
// These are the calibration primitives the backend applies per weight column
// and per activation row.
func QuantizeInt8(dst []int8, src []float32) float32 {
	if len(dst) < len(src) {
		panic("tensor: QuantizeInt8 destination shorter than source")
	}
	return quantizeRow(dst, src)
}

// DequantizeInt8 reconstructs float32 values from int8 codes and their scale.
func DequantizeInt8(dst []float32, src []int8, scale float32) {
	if len(dst) < len(src) {
		panic("tensor: DequantizeInt8 destination shorter than source")
	}
	for i, q := range src {
		dst[i] = float32(q) * scale
	}
}

// weightsFor returns the cached per-channel quantization of b, calibrating on
// first sight. Calibration is once per weight matrix per process — not a
// steady-state cost.
func (be *Int8Backend) weightsFor(b *Matrix) *int8Weights {
	if w, ok := be.weights[b]; ok && len(w.q) == len(b.Data) {
		return w
	}
	w := &int8Weights{q: make([]int8, len(b.Data)), scale: make([]float32, b.Cols)}
	// Pass 1: per-column max-abs.
	for r := 0; r < b.Rows; r++ {
		for j, v := range b.Row(r) {
			if v < 0 {
				v = -v
			}
			if v > w.scale[j] {
				w.scale[j] = v
			}
		}
	}
	inv := make([]float32, b.Cols)
	for j, maxAbs := range w.scale {
		if maxAbs == 0 {
			continue
		}
		w.scale[j] = maxAbs / 127
		inv[j] = 127 / maxAbs
	}
	// Pass 2: quantize.
	for r := 0; r < b.Rows; r++ {
		row := b.Row(r)
		qrow := w.q[r*b.Cols : (r+1)*b.Cols]
		for j, v := range row {
			qrow[j] = roundInt8(float32(v * inv[j]))
		}
	}
	be.weights[b] = w
	return w
}

// MatMulInto computes a·b into out in int8 arithmetic (see the type comment
// for the quantization scheme). Validation matches the reference MatMulInto.
//
//edgepc:hotpath
func (be *Int8Backend) MatMulInto(out, a, b *Matrix) error {
	return be.MatMulBiasInto(out, a, b, nil)
}

// MatMulBiasInto is MatMulInto with the float32 bias added to each row after
// it is dequantized: the same add, on the same value, as a separate bias
// sweep over MatMulInto's output.
//
//edgepc:hotpath
func (be *Int8Backend) MatMulBiasInto(out, a, b *Matrix, bias []float32) error {
	if err := checkMatMul(out, a, b, bias); err != nil {
		return err
	}
	qb := be.weightsFor(b)
	kc := a.Cols
	if cap(be.qa) < a.Rows*kc {
		//edgepc:lint-ignore hotpathalloc cap-guarded grow; steady-state frames reuse the scratch
		be.qa = make([]int8, a.Rows*kc)
	}
	if cap(be.scaleA) < a.Rows {
		//edgepc:lint-ignore hotpathalloc cap-guarded grow; steady-state frames reuse the scratch
		be.scaleA = make([]float32, a.Rows)
	}
	qa := be.qa[:a.Rows*kc]
	scaleA := be.scaleA[:a.Rows]
	parallel.ForChunks(a.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			scaleA[i] = quantizeRow(qa[i*kc:(i+1)*kc], a.Row(i))
		}
	})
	parallel.ForChunks(a.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			or := out.Row(i)
			for j := range or {
				or[j] = 0
			}
			qar := qa[i*kc : (i+1)*kc]
			for k, av := range qar {
				if av == 0 {
					continue
				}
				avf := float32(av)
				qbr := qb.q[k*out.Cols : (k+1)*out.Cols]
				for j, bv := range qbr {
					or[j] += float32(avf * float32(bv))
				}
			}
			sa := scaleA[i]
			for j := range or {
				or[j] *= sa * qb.scale[j]
			}
			for j, bv := range bias {
				or[j] += bv
			}
		}
	})
	return nil
}

// ConcatInto is data movement: exact float32, as the
// dequantize-at-stage-boundary contract keeps everything between matmuls.
//
//edgepc:hotpath
func (be *Int8Backend) ConcatInto(out, a, b *Matrix) error { return ConcatInto(out, a, b) }
