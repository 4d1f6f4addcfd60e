package model

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/neighbor"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Failure-injection tests: degenerate inputs a deployed pipeline will
// eventually see (LiDAR dropouts, duplicate returns, tiny clouds) must not
// crash either architecture in either configuration.

func degenerateClouds() map[string]*geom.Cloud {
	identical := geom.NewCloud(32, 0)
	for i := range identical.Points {
		identical.Points[i] = geom.Point3{X: 1, Y: 2, Z: 3}
	}
	identical.Labels = make([]int32, 32)

	line := geom.NewCloud(32, 0)
	for i := range line.Points {
		line.Points[i] = geom.Point3{X: float64(i)}
	}
	line.Labels = make([]int32, 32)

	tiny := geom.NewCloud(3, 0)
	tiny.Points = []geom.Point3{{X: 0}, {X: 1}, {Y: 1}}
	tiny.Labels = []int32{0, 1, 0}

	duplicates := geom.NewCloud(16, 0)
	for i := range duplicates.Points {
		duplicates.Points[i] = geom.Point3{X: float64(i % 3)}
	}
	duplicates.Labels = make([]int32, 16)

	return map[string]*geom.Cloud{
		"identical":  identical,
		"collinear":  line,
		"tiny":       tiny,
		"duplicates": duplicates,
	}
}

func TestPointNetPPDegenerateInputs(t *testing.T) {
	for name, cloud := range degenerateClouds() {
		for _, morton := range []bool{false, true} {
			cfg := tinyPPConfig(morton)
			net, err := NewPointNetPP(cfg)
			if err != nil {
				t.Fatal(err)
			}
			out, err := net.Forward(cloud, nil, false)
			if err != nil {
				t.Fatalf("%s morton=%v: %v", name, morton, err)
			}
			if out.Logits.Rows != cloud.Len() {
				t.Fatalf("%s morton=%v: %d logit rows", name, morton, out.Logits.Rows)
			}
			for _, v := range out.Logits.Data {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("%s morton=%v: non-finite logits", name, morton)
				}
			}
		}
	}
}

func TestDGCNNDegenerateInputs(t *testing.T) {
	for name, cloud := range degenerateClouds() {
		for _, morton := range []bool{false, true} {
			net, err := NewDGCNN(tinyDGCNNConfig(morton, TaskSegmentation))
			if err != nil {
				t.Fatal(err)
			}
			out, err := net.Forward(cloud, nil, false)
			if err != nil {
				t.Fatalf("%s morton=%v: %v", name, morton, err)
			}
			for _, v := range out.Logits.Data {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("%s morton=%v: non-finite logits", name, morton)
				}
			}
		}
	}
}

func TestTrainOnDegenerateCloud(t *testing.T) {
	// Backward through duplicate/identical geometry must stay finite.
	cloud := degenerateClouds()["duplicates"]
	cfg := tinyPPConfig(true)
	net, err := NewPointNetPP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := net.Forward(cloud, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	grad := out.Logits.Clone()
	for i := range grad.Data {
		grad.Data[i] = 0.01
	}
	if err := net.Backward(grad); err != nil {
		t.Fatal(err)
	}
	for _, p := range net.Params() {
		for _, v := range p.Grad.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("non-finite gradient in %s", p.Name)
			}
		}
	}
}

func TestKClampedWhenCloudSmallerThanK(t *testing.T) {
	cloud := degenerateClouds()["tiny"] // 3 points, K configured as 4
	net, err := NewDGCNN(tinyDGCNNConfig(false, TaskClassification))
	if err != nil {
		t.Fatal(err)
	}
	trace := &Trace{}
	if _, err := net.Forward(cloud, trace, false); err != nil {
		t.Fatal(err)
	}
	for _, r := range trace.Records {
		if r.Stage == StageNeighbor && r.K > cloud.Len() {
			t.Fatalf("k=%d exceeds %d points", r.K, cloud.Len())
		}
	}
}

// TestPlannerErrorReachesCaller: a PointNet++ frame's coordinate planner
// fails, on a cloud it cannot plan or at a deep level its sampler rejects,
// and the feature pass is waiting (or will wait) on an entry the planner
// never publishes. The error must reach Forward's caller (so no waiter is
// left asleep: Forward joins both chains), no goroutine may be left behind,
// and the next frame on the same net must be the frame a fresh net computes. Run at one core (the planner runs
// inline) and at four (it runs ahead: the cloud is above planGrain).
func TestPlannerErrorReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	good := randomCloud(2*planGrain, 5)
	nan := good.Clone()
	nan.Points[good.Len()/3].Y = math.NaN()

	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, morton := range []bool{false, true} {
			fresh, err := NewPointNetPP(tinyPPConfig(morton))
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Forward(good, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			net, err := NewPointNetPP(tinyPPConfig(morton))
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			deep := net.SA[len(net.SA)-1]
			k := deep.K
			for _, tc := range []struct {
				name    string
				cloud   *geom.Cloud
				k       int
				wantErr error
			}{
				{"non-finite cloud", nan, k, nil},
				{"deep level rejected", good, -1, neighbor.ErrBadK},
			} {
				deep.K = tc.k
				err := forwardWithin(t, net, tc.cloud, 30*time.Second)
				deep.K = k
				if err == nil || (tc.wantErr != nil && !errors.Is(err, tc.wantErr)) {
					t.Fatalf("GOMAXPROCS %d morton=%v %s: err %v", procs, morton, tc.name, err)
				}
			}
			got, err := net.Forward(good, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Logits.Equal(want.Logits) {
				t.Fatalf("GOMAXPROCS %d morton=%v: the frame after the errors differs from a fresh net's", procs, morton)
			}
			// Split returned, so the feature pass's goroutine has called
			// Done; give it the moment it needs to exit.
			deadline := time.Now().Add(time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("GOMAXPROCS %d morton=%v: %d goroutines after the errors, %d before", procs, morton, n, before)
			}
		}
	}
}

// forwardWithin runs an eval frame and fails the test if it does not return
// in time: a feature pass left waiting on the plan hangs.
func forwardWithin(t *testing.T, net *PointNetPP, cloud *geom.Cloud, d time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := net.Forward(cloud, &Trace{}, false)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("Forward did not return in %v", d)
		return nil
	}
}

func randomCloud(n int, seed int64) *geom.Cloud {
	rng := rand.New(rand.NewSource(seed))
	c := geom.NewCloud(n, 0)
	for i := range c.Points {
		c.Points[i] = geom.Point3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	c.Labels = make([]int32, n)
	return c
}

// panicLayer is a bug in the feature pass: its Forward panics.
type panicLayer struct{}

func (panicLayer) Forward(*tensor.Matrix, bool) (*tensor.Matrix, error) {
	panic("feature pass bug")
}
func (panicLayer) Backward(*tensor.Matrix) (*tensor.Matrix, error) { return nil, nil }
func (panicLayer) Params() []*nn.Param                             { return nil }

// TestChainPanicReachesCaller: when the two chains run side by side the
// feature pass runs off the caller's goroutine, and a panic there must still
// reach Forward's caller — where a server's recover contains it — with
// nothing left running, and print as the same panic does inline (one core).
func TestChainPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	net, err := NewPointNetPP(tinyPPConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	net.Head.Layers = append(net.Head.Layers, panicLayer{})
	cloud := randomCloud(2*planGrain, 6)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		before := runtime.NumGoroutine()
		v := func() (v any) {
			defer func() { v = recover() }()
			_, _ = net.Forward(cloud, nil, false)
			return nil
		}()
		if got := fmt.Sprint(v); got != "feature pass bug" {
			t.Fatalf("GOMAXPROCS %d: Forward's caller recovered %q, want the feature pass's panic", procs, got)
		}
		if s, ok := v.(interface{ Stack() []byte }); procs > 1 && (!ok || !strings.Contains(string(s.Stack()), "panicLayer")) {
			t.Fatalf("GOMAXPROCS %d: the recovered panic carries no stack through the panicking layer", procs)
		}
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("GOMAXPROCS %d: %d goroutines after the panic, %d before", procs, n, before)
		}
	}
}

// backwardPanicLayer is a bug in a backward pass: its Forward passes the
// activation on, its Backward panics.
type backwardPanicLayer struct{}

func (backwardPanicLayer) Forward(x *tensor.Matrix, _ bool) (*tensor.Matrix, error) { return x, nil }
func (backwardPanicLayer) Backward(*tensor.Matrix) (*tensor.Matrix, error) {
	panic("backward bug")
}
func (backwardPanicLayer) Params() []*nn.Param { return nil }

// trainStep runs a train Forward of cloud, then mid when it is non-nil, and a
// Backward of a fixed loss gradient from zeroed gradients, failing the test
// if Backward has not returned within a few seconds (a worker left waiting
// on its queue hangs it). It returns Backward's error, or the panic it
// raised.
func trainStep(t *testing.T, net *DGCNN, cloud *geom.Cloud, mid func()) (err error, panicked any) {
	t.Helper()
	nn.ZeroGrads(net.Params())
	out, err := net.Forward(cloud, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if mid != nil {
		mid()
	}
	g := out.Logits.Clone()
	for i := range g.Data {
		g.Data[i] = float32(i%5+1) * 0.1
	}
	type result struct {
		err error
		v   any
	}
	done := make(chan result, 1)
	go func() {
		var r result
		defer func() {
			r.v = recover()
			done <- r
		}()
		r.err = net.Backward(g)
	}()
	select {
	case r := <-done:
		return r.err, r.v
	case <-time.After(10 * time.Second):
		t.Fatal("Backward did not return")
		return nil, nil
	}
}

// gradBits returns every parameter gradient's bits.
func gradBits(net *DGCNN) [][]uint32 {
	var out [][]uint32
	for _, p := range net.Params() {
		b := make([]uint32, len(p.Grad.Data))
		for i, v := range p.Grad.Data {
			b[i] = math.Float32bits(v)
		}
		out = append(out, b)
	}
	return out
}

// settle waits for the goroutines a failed step may still be ending and
// fails the test if more than before remain.
func settle(t *testing.T, what string, before int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%s: %d goroutines after the step, %d before", what, n, before)
	}
}

// TestBackwardFailureJoinsGradWorker: a training step's Backward that fails
// or panics after Linear layers have queued their weight gradients returns
// only once the worker is joined — no Param.Grad write lands after it (the
// race detector sees the reads below), no goroutine or waiter is left — and
// the next step on the same net has a fresh net's bits. A panic on the
// worker reaches the caller printing as it does inline, on one core.
func TestBackwardFailureJoinsGradWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cloud := randomCloud(2*gradGrain, 4)
	fresh, err := NewDGCNN(tinyDGCNNConfig(false, TaskClassification))
	if err != nil {
		t.Fatal(err)
	}
	if err, v := trainStep(t, fresh, cloud, nil); err != nil || v != nil {
		t.Fatalf("fresh net: %v %v", err, v)
	}
	want := gradBits(fresh)

	for _, tc := range []struct {
		name string
		// breakIt runs between the failing step's Forward and Backward and
		// returns what undoes it.
		breakIt func(net *DGCNN) (restore func())
		wantErr string // or the panic's text, when known
		panics  bool
	}{
		{"walk error", func(net *DGCNN) func() {
			// EC1's Backward fails after the head, the embedding and EC2
			// have queued theirs; the next Forward refills the cache.
			net.EC[1].cache.nbr = nil
			return func() {}
		}, "model: EC backward before forward(train)", false},
		{"walk panic", func(net *DGCNN) func() {
			// Between the head's Linears: head.1 has queued its task.
			layers := net.Head.Layers
			n := len(layers)
			net.Head.Layers = append(append(append([]nn.Layer(nil), layers[:n-1]...), backwardPanicLayer{}), layers[n-1])
			return func() { net.Head.Layers = layers }
		}, "backward bug", true},
		{"worker panic", func(net *DGCNN) func() {
			// The embedding's bias sums, queued, overrun a gradient too
			// short for them.
			b := net.Embed.Layers[0].(*nn.Linear).B
			grad := b.Grad
			b.Grad = tensor.New(1, 1)
			return func() { b.Grad = grad }
		}, "", true},
	} {
		var texts []string
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			what := fmt.Sprintf("%s at GOMAXPROCS %d", tc.name, procs)
			net, err := NewDGCNN(tinyDGCNNConfig(false, TaskClassification))
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			var restore func()
			err, v := trainStep(t, net, cloud, func() { restore = tc.breakIt(net) })
			restore()
			switch {
			case tc.panics && v == nil:
				t.Fatalf("%s: Backward returned %v, want a panic", what, err)
			case !tc.panics && (err == nil || err.Error() != tc.wantErr):
				t.Fatalf("%s: Backward returned %v (panic %v), want %q", what, err, v, tc.wantErr)
			}
			if tc.panics {
				texts = append(texts, fmt.Sprint(v))
			}
			gradBits(net) // every write has landed: the race detector checks
			settle(t, what, before)

			if err, v := trainStep(t, net, cloud, nil); err != nil || v != nil {
				t.Fatalf("%s: the next step failed: %v %v", what, err, v)
			}
			if !reflect.DeepEqual(gradBits(net), want) {
				t.Fatalf("%s: the next step's gradients differ from a fresh net's", what)
			}
		}
		if tc.panics && (texts[0] != texts[1] || (tc.wantErr != "" && texts[0] != tc.wantErr)) {
			t.Fatalf("%s: the caller recovered %q on one core and %q on four", tc.name, texts[0], texts[1])
		}
	}
}

// TestPlannerRejectsOverflowingSpan: a finite cloud so wide that its squared
// distances reach the searches' 1e300 sentinel used to reach the SA grouping
// with neighbor index −1; the span check at the top of Forward stops it, under
// Baseline and S+N, inline and run ahead, and the next frame is served as a
// fresh net serves it.
func TestPlannerRejectsOverflowingSpan(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	good := randomCloud(2*planGrain, 7)
	wide := good.Clone()
	for i := range wide.Points {
		wide.Points[i] = wide.Points[i].Scale(1e150)
	}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, morton := range []bool{false, true} {
			fresh, err := NewPointNetPP(tinyPPConfig(morton))
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Forward(good, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			net, err := NewPointNetPP(tinyPPConfig(morton))
			if err != nil {
				t.Fatal(err)
			}
			if err := forwardWithin(t, net, wide, 30*time.Second); err == nil || !strings.Contains(err.Error(), "diagonal") {
				t.Fatalf("GOMAXPROCS %d morton=%v: got %v, want the span error naming the diagonal", procs, morton, err)
			}
			got, err := net.Forward(good, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Logits.Equal(want.Logits) {
				t.Fatalf("GOMAXPROCS %d morton=%v: the frame after the error differs from a fresh net's", procs, morton)
			}
		}
	}
}
