package serve

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/pipeline"
)

// heldNet is a real pipeline.Net that parks on gate before serving the one
// cloud `hold` — the lever that keeps the worker busy while a micro-batch of
// a chosen size and order queues up behind it.
type heldNet struct {
	pipeline.Net
	hold *geom.Cloud
	gate chan struct{}
}

func (h *heldNet) Forward(cloud *geom.Cloud, trace *model.Trace, train bool) (*model.Output, error) {
	if cloud == h.hold {
		<-h.gate
	}
	return h.Net.Forward(cloud, trace, train)
}

func logitsFNV(out *model.Output) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range out.Logits.Data {
		u := math.Float32bits(v)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestLogitsInvariantToMicroBatchComposition is the batch half of "results
// are a function of the inputs and the seed": through a real Engine, a cloud
// served alone and the same cloud served inside micro-batches of 2…8 — at
// every position, among companions of 300, 1024 and 8192 points that resize
// every buffer the replica keeps between frames (workspace, BatchNorm's
// statistics scratch, the spatial index) — returns FNV-equal logits, and so
// does every companion. A batch runs its frames one after another on one
// replica, so what this catches is state a frame leaves behind for the next:
// mutation-checked once by keeping BatchNorm's column sums in a buffer shared
// across calls and not re-zeroed, which fails the first batch of 2.
func TestLogitsInvariantToMicroBatchComposition(t *testing.T) {
	sizes := []int{1024, 300, 8192}
	if testing.Short() {
		sizes = []int{512, 300, 2048}
	}
	for _, tc := range []struct {
		id   string
		kind pipeline.ConfigKind
	}{{"W1", pipeline.SN}, {"W1", pipeline.Baseline}, {"W3", pipeline.SN}} {
		t.Run(fmt.Sprintf("%s_%s", tc.id, tc.kind), func(t *testing.T) {
			w, err := pipeline.WorkloadByID(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			net, err := pipeline.Build(w, tc.kind, pipeline.Options{BaseWidth: 4, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			// clouds[0] is the one followed through every batch; eight
			// companions, so a batch of 8 never repeats one.
			var clouds []*geom.Cloud
			for i := 0; i < 2*len(sizes)+3; i++ {
				w.Points = sizes[i%len(sizes)]
				if w.Arch == pipeline.ArchDGCNN {
					w.Points = w.Points/8 + 40 // its exact search is O(N²·C); the mix of sizes is what matters
				}
				c, err := pipeline.Frame(w, int64(200+i))
				if err != nil {
					t.Fatal(err)
				}
				clouds = append(clouds, c)
			}
			w.Points = 64
			hold, err := pipeline.Frame(w, 199)
			if err != nil {
				t.Fatal(err)
			}

			gate := make(chan struct{})
			e, err := New([]pipeline.Net{&heldNet{Net: net, hold: hold, gate: gate}}, nil, edgesim.Config{},
				Config{QueueDepth: 16, MaxBatch: 8, BatchWindow: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				select {
				case gate <- struct{}{}: // a failure left the worker parked
				default:
				}
				e.Close()
			}()

			type served struct {
				cloud int
				res   Result
				err   error
			}
			submit := func(i int, c *geom.Cloud, done chan<- served) {
				res, err := e.Submit(context.Background(), Request{Cloud: c})
				done <- served{i, res, err}
			}

			// Alone: every cloud as a batch of one.
			alone := make([]uint64, len(clouds))
			for i, c := range clouds {
				done := make(chan served, 1)
				submit(i, c, done)
				s := <-done
				if s.err != nil || s.res.BatchSize != 1 {
					t.Fatalf("cloud %d alone: batch of %d, err %v", i, s.res.BatchSize, s.err)
				}
				alone[i] = logitsFNV(s.res.Output)
			}

			for b := 2; b <= 8; b++ {
				// Park the worker on the hold frame, queue b frames in a
				// known order — cloud 0 at position b/2, companions rotated
				// by b — then let go.
				before := e.Stats().Batches
				done := make(chan served, b+1)
				go submit(-1, hold, done)
				waitUntil(t, "worker to park on the hold frame", func() bool { return e.Stats().Batches == before+1 })
				for pos := 0; pos < b; pos++ {
					i := 0
					if pos != b/2 {
						i = 1 + (b+pos)%(len(clouds)-1)
					}
					go submit(i, clouds[i], done)
					waitUntil(t, "frame to queue", func() bool { return e.Stats().QueueLen == pos+1 })
				}
				gate <- struct{}{}
				followed := false
				for n := 0; n < b+1; n++ {
					s := <-done
					if s.err != nil {
						t.Fatalf("batch of %d, cloud %d: %v", b, s.cloud, s.err)
					}
					if s.cloud < 0 {
						continue
					}
					if s.res.BatchSize != b {
						t.Fatalf("cloud %d rode a batch of %d, want %d", s.cloud, s.res.BatchSize, b)
					}
					if got := logitsFNV(s.res.Output); got != alone[s.cloud] {
						t.Fatalf("batch of %d: cloud %d (%d points) logits %016x, alone %016x",
							b, s.cloud, clouds[s.cloud].Len(), got, alone[s.cloud])
					}
					followed = followed || s.cloud == 0
				}
				if !followed {
					t.Fatalf("batch of %d never carried cloud 0", b)
				}
			}
		})
	}
}
