package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// CrossEntropy computes softmax cross-entropy over the rows of logits
// against integer labels, returning the mean loss and the gradient w.r.t.
// logits (already divided by the row count). A label of -1 marks an ignored
// row (contributes neither loss nor gradient).
func CrossEntropy(logits *tensor.Matrix, labels []int32) (float64, *tensor.Matrix, error) {
	if logits.Rows != len(labels) {
		return 0, nil, fmt.Errorf("nn: %d logit rows for %d labels", logits.Rows, len(labels))
	}
	grad := tensor.New(logits.Rows, logits.Cols)
	// A row's exponentials, each evaluated once for the sum and for p.
	var buf [64]float64
	exps := buf[:0]
	if logits.Cols > len(buf) {
		exps = make([]float64, 0, logits.Cols)
	}
	var loss float64
	counted := 0
	for r := 0; r < logits.Rows; r++ {
		lab := labels[r]
		if lab < 0 {
			continue
		}
		if int(lab) >= logits.Cols {
			return 0, nil, fmt.Errorf("nn: label %d out of %d classes", lab, logits.Cols)
		}
		counted++
		row := logits.Row(r)
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		exps = exps[:0]
		for _, v := range row {
			e := math.Exp(float64(v - maxV))
			exps = append(exps, e)
			sum += e
		}
		logSum := math.Log(sum) + float64(maxV)
		loss += logSum - float64(row[lab])
		gr := grad.Row(r)
		for c, e := range exps {
			gr[c] = float32(e / sum)
		}
		gr[lab] -= 1
	}
	if counted == 0 {
		return 0, grad, nil
	}
	inv := float32(1.0 / float64(counted))
	for i := range grad.Data {
		grad.Data[i] *= inv
	}
	return loss / float64(counted), grad, nil
}

// Accuracy returns the fraction of rows whose argmax matches the label,
// ignoring rows labelled -1.
func Accuracy(logits *tensor.Matrix, labels []int32) float64 {
	correct, counted := 0, 0
	for r := 0; r < logits.Rows; r++ {
		if labels[r] < 0 {
			continue
		}
		counted++
		if Argmax(logits.Row(r)) == int(labels[r]) {
			correct++
		}
	}
	if counted == 0 {
		return 0
	}
	return float64(correct) / float64(counted)
}

// Argmax returns the index of the largest element of row.
func Argmax(row []float32) int {
	best, bestV := 0, row[0]
	for i, v := range row[1:] {
		if v > bestV {
			best, bestV = i+1, v
		}
	}
	return best
}
