package serve

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/pipeline"
)

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

// TestLogitsInvariantToMicroBatchComposition is the serving half of
// "results are a function of the inputs and the seed". The composition is
// that of the run of frames one replica serves back to back, one frame per
// pickup: through a real one-worker Engine, a cloud served in index order
// and the same cloud served inside runs of 2…8 frames — at every position,
// among companions of 300, 1024 and 8192 points that resize every buffer the
// replica keeps between frames (workspace, BatchNorm's statistics scratch,
// the spatial index), each run led by a 64-point frame — returns FNV-equal
// logits, and so does every companion. What this catches is state a frame
// leaves behind for the next: mutation-checked once by keeping BatchNorm's
// column sums in a buffer shared across calls and not re-zeroed, which fails
// the first run of 2.
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
			// clouds[0] is the one followed through every run; eight
			// companions, so a run of 8 never repeats one.
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
			lead, err := pipeline.Frame(w, 199)
			if err != nil {
				t.Fatal(err)
			}

			e, err := NewEngine([]pipeline.Net{net}, Config{QueueDepth: 16})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			run := func(c *geom.Cloud) uint64 {
				t.Helper()
				res, err := e.Submit(context.Background(), Request{Cloud: c})
				if err != nil {
					t.Fatal(err)
				}
				return logitsFNV(res.Output)
			}

			alone := make([]uint64, len(clouds))
			for i, c := range clouds {
				alone[i] = run(c)
			}
			for b := 2; b <= 8; b++ {
				// The lead frame, then b frames in a known order: cloud 0
				// at position b/2, companions rotated by b.
				run(lead)
				for pos := 0; pos < b; pos++ {
					i := 0
					if pos != b/2 {
						i = 1 + (b+pos)%(len(clouds)-1)
					}
					if got := run(clouds[i]); got != alone[i] {
						t.Fatalf("run of %d, position %d: cloud %d (%d points) logits %016x, in index order %016x",
							b, pos, i, clouds[i].Len(), got, alone[i])
					}
				}
			}
		})
	}
}
