package nn

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// queueNet is a shared MLP and a head Linear trained from an arena of its
// own, as a graph's stages are.
type queueNet struct {
	mlp   *Sequential
	arena *tensor.Workspace
}

func newQueueNet(seed int64) *queueNet {
	rng := rand.New(rand.NewSource(seed))
	n := &queueNet{
		mlp:   NewSequential(append(NewSharedMLP("q", []int{6, 16, 16}, rng).Layers, NewLinear("q.head", 16, 8, rng))...),
		arena: tensor.NewWorkspace(),
	}
	AttachTrainArena(n.arena, n.mlp)
	return n
}

// step runs a train forward and a backward, through the running queue q
// when it is non-nil, and returns the input gradient's bits (nil without
// input).
func (n *queueNet) step(t *testing.T, x, g *tensor.Matrix, q *GradQueue, input bool) []float32 {
	t.Helper()
	n.arena.Reset()
	if _, err := n.mlp.Forward(x, true); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	if q != nil {
		q.Start()
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.Work()
		}()
	}
	var dx *tensor.Matrix
	var err error
	if input {
		dx, err = n.mlp.Backward(g.Clone())
	} else {
		err = n.mlp.BackwardParams(g.Clone())
	}
	if q != nil {
		q.Close()
		wg.Wait()
		if qerr := q.Finish(); err == nil {
			err = qerr
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if dx == nil {
		return nil
	}
	return append([]float32(nil), dx.Data...)
}

// TestGradQueueMatchesInline: a Linear whose weight gradients run on the
// queue's worker accumulates the bits an inline one does, step after step,
// returns the same input gradient, and leaves the arena lending what an
// inline step leaves lent — every gradient a task borrowed came back. Under
// the race detector this is also the check that the walk and the worker
// share nothing but what the queue hands over.
func TestGradQueueMatchesInline(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(5))
	inline, queued := newQueueNet(9), newQueueNet(9)
	q := NewGradQueue(len(queued.mlp.Params()))
	AttachGradQueue(q, queued.mlp)
	for it := 0; it < 60; it++ {
		rows := 32 + rng.Intn(480)
		x, g := randInput(rng, rows, 6), randInput(rng, rows, 8)
		input := it%3 != 0
		want := inline.step(t, x, g, nil, input)
		got := queued.step(t, x, g, q, input)
		if len(got) != len(want) {
			t.Fatalf("step %d: input gradient of %d values, want %d", it, len(got), len(want))
		}
		for i := range want {
			if !sameFloatBits(got[i], want[i]) {
				t.Fatalf("step %d: input gradient differs at %d", it, i)
			}
		}
		for pi, p := range queued.mlp.Params() {
			wp := inline.mlp.Params()[pi]
			for i, v := range wp.Grad.Data {
				if !sameFloatBits(p.Grad.Data[i], v) {
					t.Fatalf("step %d: %s gradient differs at %d", it, p.Name, i)
				}
			}
		}
		if got, want := queued.arena.Stats().Lent, inline.arena.Stats().Lent; got != want {
			t.Fatalf("step %d: the arena lends %d matrices after a queued step, %d after an inline one", it, got, want)
		}
	}
}

// TestBackwardParamsMatchesBackward: the chain that computes no input
// gradient accumulates every parameter gradient's bits as Backward does.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, b := newQueueNet(3), newQueueNet(3)
	for it := 0; it < 3; it++ {
		x, g := randInput(rng, 200, 6), randInput(rng, 200, 8)
		if dx := a.step(t, x, g, nil, true); dx == nil {
			t.Fatal("Backward returned no input gradient")
		}
		b.step(t, x, g, nil, false)
	}
	for pi, p := range b.mlp.Params() {
		for i, v := range a.mlp.Params()[pi].Grad.Data {
			if !sameFloatBits(p.Grad.Data[i], v) {
				t.Fatalf("%s gradient differs at %d", p.Name, i)
			}
		}
	}
}
