// Package metrics provides the evaluation metrics of the paper's
// experiments: classification accuracy and mean IoU for model quality,
// coverage radius and chamfer distance for sampling quality (the
// quantitative form of Fig. 5), and summary statistics.
package metrics

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// MeanIoU computes the class-averaged intersection-over-union of predicted
// vs. true labels. Classes absent from both prediction and ground truth are
// skipped.
func MeanIoU(pred, truth []int32, classes int) (float64, error) {
	if len(pred) != len(truth) {
		return 0, fmt.Errorf("metrics: %d predictions for %d labels", len(pred), len(truth))
	}
	inter := make([]int, classes)
	union := make([]int, classes)
	for i, p := range pred {
		t := truth[i]
		if t < 0 {
			continue
		}
		if int(p) >= classes || int(t) >= classes || p < 0 {
			return 0, fmt.Errorf("metrics: label out of range (pred=%d truth=%d classes=%d)", p, t, classes)
		}
		if p == t {
			inter[p]++
			union[p]++
		} else {
			union[p]++
			union[t]++
		}
	}
	var sum float64
	seen := 0
	for c := 0; c < classes; c++ {
		if union[c] == 0 {
			continue
		}
		seen++
		sum += float64(inter[c]) / float64(union[c])
	}
	if seen == 0 {
		return 0, nil
	}
	return sum / float64(seen), nil
}

// OverallAccuracy is the fraction of points with the correct label (labels
// < 0 ignored).
func OverallAccuracy(pred, truth []int32) (float64, error) {
	if len(pred) != len(truth) {
		return 0, fmt.Errorf("metrics: %d predictions for %d labels", len(pred), len(truth))
	}
	correct, counted := 0, 0
	for i, p := range pred {
		if truth[i] < 0 {
			continue
		}
		counted++
		if p == truth[i] {
			correct++
		}
	}
	if counted == 0 {
		return 0, nil
	}
	return float64(correct) / float64(counted), nil
}

// CoverageRadius measures sampling quality: the mean (and max) distance from
// every original point to its nearest sampled point. FPS minimizes the max
// (it is a greedy k-center); a good approximation should track it closely.
// This quantifies what Fig. 5 shows visually.
func CoverageRadius(cloud []geom.Point3, sampled []int) (mean, max float64, err error) {
	if len(sampled) == 0 {
		return 0, 0, fmt.Errorf("metrics: no sampled points")
	}
	pts := make([]geom.Point3, len(sampled))
	for i, s := range sampled {
		if s < 0 || s >= len(cloud) {
			return 0, 0, fmt.Errorf("metrics: sample index %d out of %d", s, len(cloud))
		}
		pts[i] = cloud[s]
	}
	var sum float64
	for _, p := range cloud {
		best := math.Inf(1)
		for _, q := range pts {
			if d := p.DistSq(q); d < best {
				best = d
			}
		}
		d := math.Sqrt(best)
		sum += d
		if d > max {
			max = d
		}
	}
	return sum / float64(len(cloud)), max, nil
}

// CoverageStats returns the full distribution of every original point's
// distance to its nearest sampled point. The standard deviation quantifies
// the paper's Fig. 5b "uneven distribution": density-biased samplers leave
// some regions much farther from any sample than others.
func CoverageStats(cloud []geom.Point3, sampled []int) (Summary, error) {
	if len(sampled) == 0 {
		return Summary{}, fmt.Errorf("metrics: no sampled points")
	}
	pts := make([]geom.Point3, len(sampled))
	for i, s := range sampled {
		if s < 0 || s >= len(cloud) {
			return Summary{}, fmt.Errorf("metrics: sample index %d out of %d", s, len(cloud))
		}
		pts[i] = cloud[s]
	}
	dists := make([]float64, len(cloud))
	for i, p := range cloud {
		best := math.Inf(1)
		for _, q := range pts {
			if d := p.DistSq(q); d < best {
				best = d
			}
		}
		dists[i] = math.Sqrt(best)
	}
	return Summarize(dists), nil
}

// ChamferDistance computes the symmetric chamfer distance between two point
// sets (mean nearest-neighbor distance in both directions). Used to compare
// a sampled subset against the original surface.
func ChamferDistance(a, b []geom.Point3) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, fmt.Errorf("metrics: chamfer distance of empty set")
	}
	d1 := meanNearest(a, b)
	d2 := meanNearest(b, a)
	return (d1 + d2) / 2, nil
}

func meanNearest(from, to []geom.Point3) float64 {
	var sum float64
	for _, p := range from {
		best := math.Inf(1)
		for _, q := range to {
			if d := p.DistSq(q); d < best {
				best = d
			}
		}
		sum += math.Sqrt(best)
	}
	return sum / float64(len(from))
}

// Summary holds basic statistics of a series.
type Summary struct {
	N              int
	Mean, Min, Max float64
	Std            float64
}

// Summarize computes summary statistics.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs {
		s.Mean += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean /= float64(len(xs))
	for _, x := range xs {
		d := x - s.Mean
		s.Std += float64(d * d)
	}
	s.Std = math.Sqrt(s.Std / float64(len(xs)))
	return s
}

// GeoMean computes the geometric mean of positive values (the conventional
// aggregate for speedups).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}
