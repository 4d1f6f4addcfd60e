package main

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/tensor"
)

// reference is what the set-up pass recorded for one pool cloud: the FNV-1a
// hash of the full-fidelity logits' float32 bits, and their shape.
type reference struct {
	hash       uint64
	rows, cols int
}

func hashLogits(m *tensor.Matrix) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range m.Data {
		b := math.Float32bits(v)
		for s := 0; s < 32; s += 8 {
			h ^= uint64(byte(b >> s))
			h *= 1099511628211
		}
	}
	return h
}

func newReference(out *model.Output) reference {
	return reference{hash: hashLogits(out.Logits), rows: out.Logits.Rows, cols: out.Logits.Cols}
}

// check compares one served output with its reference: a tier-0 frame must
// match bit for bit, a degraded frame must have the reference shape and be
// finite. It returns "" when the output is correct.
func (r reference) check(out *model.Output, tier int) string {
	if out == nil || out.Logits == nil {
		return "no output"
	}
	l := out.Logits
	if l.Rows != r.rows || l.Cols != r.cols {
		return fmt.Sprintf("shape %dx%d, reference %dx%d", l.Rows, l.Cols, r.rows, r.cols)
	}
	if tier == 0 {
		if h := hashLogits(l); h != r.hash {
			return fmt.Sprintf("tier-0 logits hash %016x, reference %016x", h, r.hash)
		}
		return ""
	}
	for _, v := range l.Data {
		if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Sprintf("tier-%d logits not finite", tier)
		}
	}
	return ""
}
