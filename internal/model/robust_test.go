package model

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
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
