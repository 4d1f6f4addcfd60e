// Package dataset provides the workload data for the experiments: synthetic
// stand-ins for the paper's four datasets (ModelNet40 → shape classification,
// ShapeNet → part segmentation, S3DIS/ScanNet → indoor-scene semantic
// segmentation) plus ASCII OFF and PLY loaders for real point-cloud files.
//
// Every synthetic dataset is deterministic: item i of a dataset with seed s
// is synthesized from seed s+i, so train/test splits and repeated runs are
// reproducible without storing any data.
package dataset

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/geom"
)

// Sample is one dataset item: a cloud and, for classification tasks, a
// cloud-level label (−1 for segmentation tasks, whose labels live per point
// in Cloud.Labels).
type Sample struct {
	Cloud *geom.Cloud
	Label int32
}

// Dataset is a deterministic indexed collection of samples.
type Dataset interface {
	Len() int
	At(i int) (*Sample, error)
	Classes() int
	Name() string
}

// Split returns deterministic train/test index sets for an n-item dataset
// with the given test fraction. Items are assigned via a deterministic
// shuffle rather than a fixed stride: the synthetic datasets lay classes out
// round-robin, and a stride that divides the class period would silently
// put a single class in the test set.
func Split(n int, testFrac float64) (train, test []int) {
	if testFrac < 0 {
		testFrac = 0
	}
	if testFrac > 1 {
		testFrac = 1
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewSource(0x5eed))
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	testN := int(float64(float64(n)*testFrac) + 0.5)
	test = append(test, order[:testN]...)
	train = append(train, order[testN:]...)
	sort.Ints(test)
	sort.Ints(train)
	if len(test) == 0 {
		test = nil
	}
	return train, test
}

func checkIndex(i, n int, name string) error {
	if i < 0 || i >= n {
		return fmt.Errorf("dataset %s: index %d out of %d", name, i, n)
	}
	return nil
}
