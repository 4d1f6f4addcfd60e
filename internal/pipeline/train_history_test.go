package pipeline

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/nn"
)

// trainStep runs a train-mode Forward, the cross-entropy loss and Backward on
// one cloud, and returns the loss.
func trainStep(t *testing.T, net Net, cloud *geom.Cloud) float64 {
	t.Helper()
	out, err := net.Forward(cloud, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	labels := out.Labels
	if out.Logits.Rows == 1 {
		labels = []int32{1}
	}
	loss, grad, err := nn.CrossEntropy(out.Logits, labels)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Backward(grad); err != nil {
		t.Fatal(err)
	}
	return loss
}

// stepHash is the FNV-1a of a step's loss and of every parameter gradient.
func stepHash(loss float64, params []*nn.Param) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64, n int) {
		for i := 0; i < n; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:n])
	}
	put(math.Float64bits(loss), 8)
	for _, p := range params {
		for _, v := range p.Grad.Data {
			put(uint64(math.Float32bits(v)), 4)
		}
	}
	return h.Sum64()
}

// reseedDropout restarts the head's dropout generator, so that two nets with
// different pasts draw the same mask.
func reseedDropout(t *testing.T, net Net) {
	t.Helper()
	var head *nn.Sequential
	switch n := net.(type) {
	case *model.DGCNN:
		head = n.Head
	case *model.PointNetPP:
		head = n.Head
	default:
		t.Fatalf("no head to reseed in a %T", net)
	}
	for _, l := range head.Layers {
		if d, ok := l.(*nn.Dropout); ok {
			d.Rng = rand.New(rand.NewSource(7))
		}
	}
}

var trainHistoryCases = []string{"W3", "W1"}

// TestGradientsIndependentOfTrainingHistory is the training counterpart of
// TestOutputIndependentOfServingHistory, aimed at the training arena: a net
// that has just stepped on clouds of 1024, 300 and 2048 points then steps on
// cloud B, and its loss and every parameter gradient must be FNV-equal to a
// fresh net's single step on B. Whatever a step leaves behind — the arena's
// recycled buffers, the layers' cached inputs, the modules' argmax and
// neighbor caches — must be overwritten or zeroed before it is read. The
// running statistics BatchNorm keeps do not enter a train-mode step, and
// both nets' dropout generators are reseeded before B.
func TestGradientsIndependentOfTrainingHistory(t *testing.T) {
	for _, id := range trainHistoryCases {
		t.Run(id+"_"+SN.String(), func(t *testing.T) {
			w, err := WorkloadByID(id)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{BaseWidth: 4, Seed: 5}
			seasoned, err := Build(w, SN, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range []int{1024, 300, 2048} {
				w.Points = n
				cloud, err := Frame(w, int64(200+i))
				if err != nil {
					t.Fatal(err)
				}
				trainStep(t, seasoned, cloud)
				nn.ZeroGrads(seasoned.Params())
			}
			w.Points = 1024
			b, err := Frame(w, 300)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Build(w, SN, opts)
			if err != nil {
				t.Fatal(err)
			}
			reseedDropout(t, fresh)
			reseedDropout(t, seasoned)
			want := stepHash(trainStep(t, fresh, b), fresh.Params())
			if got := stepHash(trainStep(t, seasoned, b), seasoned.Params()); got != want {
				t.Fatalf("after steps on 1024, 300 and 2048 points: loss and gradients hash to %016x, a fresh net's to %016x", got, want)
			}
		})
	}
}

// TestBackwardAfterEvalForwardFails pins the end of a training session: an
// eval Forward after a train one drops the training arena and every backward
// cache, so Backward must fail rather than compute gradients from an earlier
// step's caches — and the next train step must be a fresh net's.
func TestBackwardAfterEvalForwardFails(t *testing.T) {
	for _, id := range trainHistoryCases {
		t.Run(id+"_"+SN.String(), func(t *testing.T) {
			w, err := WorkloadByID(id)
			if err != nil {
				t.Fatal(err)
			}
			w.Points = 512
			opts := Options{BaseWidth: 4, Seed: 6}
			net, err := Build(w, SN, opts)
			if err != nil {
				t.Fatal(err)
			}
			cloud, err := Frame(w, 400)
			if err != nil {
				t.Fatal(err)
			}
			trainStep(t, net, cloud)
			out, err := net.Forward(cloud, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			err = net.Backward(out.Logits)
			if err == nil || !strings.Contains(err.Error(), "backward before forward(train)") {
				t.Fatalf("Backward after an eval Forward: error %v, want backward before forward(train)", err)
			}
			nn.ZeroGrads(net.Params())
			fresh, err := Build(w, SN, opts)
			if err != nil {
				t.Fatal(err)
			}
			reseedDropout(t, fresh)
			reseedDropout(t, net)
			want := stepHash(trainStep(t, fresh, cloud), fresh.Params())
			if got := stepHash(trainStep(t, net, cloud), net.Params()); got != want {
				t.Fatalf("a train step after the session ended hashes to %016x, a fresh net's to %016x", got, want)
			}
		})
	}
}
