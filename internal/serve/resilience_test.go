package serve

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// badCloud builds a 4-point cloud with one coordinate poisoned.
func badCloud(poison float64) *geom.Cloud {
	c := testCloud()
	c.Points[2].Y = poison
	return c
}

func TestAdmissionRejectsInvalidFrames(t *testing.T) {
	e := newStubEngine(t, nil, Config{})
	defer e.Close()
	degenerate := geom.NewCloud(5, 0)
	for i := range degenerate.Points {
		degenerate.Points[i] = geom.Point3{X: 1, Y: 2, Z: 3}
	}
	badShape := testCloud()
	badShape.FeatDim = 2 // claims features it does not carry
	badFeat := geom.NewCloud(4, 1)
	for i := range badFeat.Points {
		badFeat.Points[i] = geom.Point3{X: float64(i), Y: 1, Z: 2}
	}
	badFeat.Feat[2] = float32(math.NaN())
	cases := []struct {
		name  string
		cloud *geom.Cloud
	}{
		{"nil", nil},
		{"empty", geom.NewCloud(0, 0)},
		{"oversized", geom.NewCloud(DefaultMaxPoints+1, 0)},
		{"nan-coord", badCloud(math.NaN())},
		{"pos-inf-coord", badCloud(math.Inf(1))},
		{"neg-inf-coord", badCloud(math.Inf(-1))},
		{"degenerate-bbox", degenerate},
		{"shape-mismatch", badShape},
		{"nan-feature", badFeat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := e.Submit(context.Background(), Request{Cloud: tc.cloud})
			if !errors.Is(err, ErrInvalidInput) {
				t.Fatalf("got %v, want ErrInvalidInput", err)
			}
		})
	}
	s := e.Stats()
	if s.Invalid != uint64(len(cases)) {
		t.Fatalf("Invalid = %d, want %d", s.Invalid, len(cases))
	}
	if s.Submitted != 0 || s.Completed != 0 {
		t.Fatalf("invalid frames reached the queue: %+v", s)
	}
	// A single point cannot have a degenerate box; it must still be served.
	one := geom.NewCloud(1, 0)
	if _, err := e.Submit(context.Background(), Request{Cloud: one}); err != nil {
		t.Fatalf("single-point cloud rejected: %v", err)
	}
}

func TestChaosPanicIsolationSerial(t *testing.T) {
	plan := &faultinject.Plan{Seed: 17, PanicFrac: 0.1}
	var rebuilds atomic.Uint64
	cfg := Config{
		Faults: plan,
		Rebuild: func(worker, tier int) (pipeline.Net, error) {
			rebuilds.Add(1)
			return &stubNet{}, nil
		},
	}
	e := newStubEngine(t, nil, cfg)
	defer e.Close()
	cloud := testCloud()
	const frames = 200
	wantPanics, wantTrips, streak := uint64(0), uint64(0), 0
	for i := 0; i < frames; i++ {
		// Serial submission: admission seq == i, so the plan predicts each
		// frame's fate exactly, and with it every run of breakerTrip panics
		// in a row that trips the breaker.
		want := plan.Frame(uint64(i)).Op
		res, err := e.Submit(context.Background(), Request{Cloud: cloud})
		if want == faultinject.OpPanic {
			wantPanics++
			if streak++; streak == breakerTrip {
				streak, wantTrips = 0, wantTrips+1
			}
			if !errors.Is(err, ErrPanic) {
				t.Fatalf("frame %d: got %v, want ErrPanic", i, err)
			}
			if res.Err == nil {
				t.Fatalf("frame %d: result not annotated with the failure", i)
			}
		} else {
			streak = 0
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
		}
	}
	if wantPanics == 0 {
		t.Fatal("plan injected no panics in 200 frames; test is vacuous")
	}
	s := e.Stats()
	if s.Panics != wantPanics || s.Quarantines != wantPanics || rebuilds.Load() != wantPanics {
		t.Fatalf("panics=%d quarantines=%d rebuilds=%d, want all %d", s.Panics, s.Quarantines, rebuilds.Load(), wantPanics)
	}
	if s.Completed != frames-wantPanics {
		t.Fatalf("completed=%d, want %d", s.Completed, frames-wantPanics)
	}
	if s.BreakerTrips != wantTrips {
		t.Fatalf("breaker tripped %d times, the plan's panic streaks predict %d", s.BreakerTrips, wantTrips)
	}
	if !strings.Contains(s.LastPanic, "faultinject: frame") {
		t.Fatalf("LastPanic missing injected panic value: %q", s.LastPanic)
	}
}

func TestChaosPanicIsolationConcurrent(t *testing.T) {
	const frames = 240
	plan := &faultinject.Plan{Seed: 99, PanicFrac: 0.1}
	// Count the plan's panic set over the seq domain [0, frames): with a
	// queue deep enough that nothing is ever rejected, every submission gets
	// a seq below frames and the total is deterministic even though the
	// seq→goroutine assignment is not.
	wantPanics := uint64(0)
	for s := uint64(0); s < frames; s++ {
		if plan.Frame(s).Op == faultinject.OpPanic {
			wantPanics++
		}
	}
	if wantPanics == 0 {
		t.Fatal("vacuous plan")
	}
	nets := []pipeline.Net{&stubNet{}, &stubNet{}, &stubNet{}, &stubNet{}}
	e, err := NewEngine(nets, Config{
		QueueDepth: frames,
		Faults:     plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	cloud := testCloud()
	var wg sync.WaitGroup
	var okN, panicN, otherN atomic.Uint64
	for i := 0; i < frames; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := e.Submit(context.Background(), Request{Cloud: cloud})
			switch {
			case err == nil:
				okN.Add(1)
			case errors.Is(err, ErrPanic):
				panicN.Add(1)
			default:
				otherN.Add(1)
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if panicN.Load() != wantPanics || okN.Load() != frames-wantPanics || otherN.Load() != 0 {
		t.Fatalf("ok=%d panicked=%d other=%d, want %d/%d/0",
			okN.Load(), panicN.Load(), otherN.Load(), frames-wantPanics, wantPanics)
	}
	s := e.Stats()
	if s.Panics != wantPanics || s.Completed != frames-wantPanics {
		t.Fatalf("stats panics=%d completed=%d, want %d/%d", s.Panics, s.Completed, wantPanics, frames-wantPanics)
	}
	if s.Rejected != 0 {
		t.Fatalf("%d rejections skewed the seq domain", s.Rejected)
	}
}

func TestCircuitBreakerTripsAndRecovers(t *testing.T) {
	plan := &faultinject.Plan{Seed: 1, PanicFrames: []uint64{0, 1, 2}}
	e := newStubEngine(t, nil, Config{Faults: plan})
	defer e.Close()
	cloud := testCloud()
	for i := 0; i < breakerTrip; i++ {
		if _, err := e.Submit(context.Background(), Request{Cloud: cloud}); !errors.Is(err, ErrPanic) {
			t.Fatalf("frame %d: got %v, want ErrPanic", i, err)
		}
	}
	// The third panic tripped the breaker; frame 3 must wait out the park
	// but then succeed on the recovered worker.
	start := time.Now()
	res, err := e.Submit(context.Background(), Request{Cloud: cloud})
	if err != nil {
		t.Fatalf("post-trip frame: %v", err)
	}
	if res.Output == nil {
		t.Fatal("post-trip frame returned no output")
	}
	// The first park is jittered into [50ms, 100ms) of breakerBase
	// (breakerBackoff), so assert against the jitter floor with margin.
	if elapsed := time.Since(start); elapsed < 45*time.Millisecond {
		t.Fatalf("post-trip frame served in %v; breaker park (≥50ms jittered) not applied", elapsed)
	}
	s := e.Stats()
	if s.BreakerTrips != 1 || s.Panics != breakerTrip {
		t.Fatalf("trips=%d panics=%d, want 1/%d", s.BreakerTrips, s.Panics, breakerTrip)
	}
}

// TestCloseDoesNotWaitOutBreakerPark is the drain-vs-parked-worker
// regression: Close must interrupt a breaker backoff immediately, serve
// what is queued, and return — not sleep the backoff out.
func TestCloseDoesNotWaitOutBreakerPark(t *testing.T) {
	plan := &faultinject.Plan{Seed: 1, PanicFrames: []uint64{0, 1, 2}}
	e := newStubEngine(t, nil, Config{QueueDepth: 4, Faults: plan})
	cloud := testCloud()
	for i := 0; i < breakerTrip; i++ {
		if _, err := e.Submit(context.Background(), Request{Cloud: cloud}); !errors.Is(err, ErrPanic) {
			t.Fatalf("fault frame %d: %v, want ErrPanic", i, err)
		}
	}
	// The third panic tripped the breaker: the worker is parked for at
	// least breakerBase/2 (breakerBackoff). Queue two frames behind the park.
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := e.Submit(context.Background(), Request{Cloud: cloud})
			errs <- err
		}()
	}
	waitUntil(t, "frames to queue behind the parked worker", func() bool {
		return e.Stats().QueueLen == 2
	})
	start := time.Now()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= breakerBase/2 {
		t.Fatalf("Close took %v, no less than the shortest breaker park; it must interrupt the park", elapsed)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("queued frame lost across Close: %v", err)
		}
	}
	if s := e.Stats(); s.Completed != 2 {
		t.Fatalf("completed=%d, want 2", s.Completed)
	}
}

func TestLastResortRespawnsWorker(t *testing.T) {
	// A Rebuild hook that panics escapes runProtected (quarantine runs after
	// the frame barrier) and kills the worker goroutine; lastResort must
	// contain it and respawn the worker so the pool keeps serving.
	plan := &faultinject.Plan{Seed: 3, PanicFrames: []uint64{0}}
	e := newStubEngine(t, nil, Config{
		Faults: plan,
		Rebuild: func(worker, tier int) (pipeline.Net, error) {
			panic("rebuild exploded")
		},
	})
	defer e.Close()
	cloud := testCloud()
	if _, err := e.Submit(context.Background(), Request{Cloud: cloud}); !errors.Is(err, ErrPanic) {
		t.Fatalf("fault frame: %v, want ErrPanic", err)
	}
	// The worker goroutine died in quarantine and was respawned; it must
	// still serve.
	var res Result
	var err error
	waitUntil(t, "respawned worker to serve", func() bool {
		res, err = e.Submit(context.Background(), Request{Cloud: cloud})
		return err == nil
	})
	if res.Output == nil {
		t.Fatal("respawned worker returned no output")
	}
	s := e.Stats()
	if s.Panics != 2 { // injected frame panic + rebuild panic
		t.Fatalf("panics=%d, want 2", s.Panics)
	}
	if !strings.Contains(s.LastPanic, "rebuild exploded") {
		t.Fatalf("LastPanic = %q, want the escaped rebuild panic", s.LastPanic)
	}
}

func TestDegradationLadderStepsDownAndRecovers(t *testing.T) {
	gate := make(chan struct{})
	tier1 := Tier{Name: "half-window", Nets: []pipeline.Net{&stubNet{gate: gate}}}
	// Depth 4: the ladder steps down at queue length 3 and a frame that
	// finishes with at most 1 queued is calm.
	e, err := NewEngine([]pipeline.Net{&stubNet{gate: gate}}, Config{
		QueueDepth: 4,
		Degrade:    []Tier{tier1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	cloud := testCloud()
	var wg sync.WaitGroup
	tiers := make(chan int, 6)
	submit := func() {
		defer wg.Done()
		res, err := e.Submit(context.Background(), Request{Cloud: cloud})
		if err != nil {
			t.Errorf("submit: %v", err)
			tiers <- -1
			return
		}
		tiers <- res.Tier
	}
	// A occupies the worker at tier 0 (sampled before any pressure).
	wg.Add(1)
	go submit()
	waitUntil(t, "worker to pick up frame A", func() bool { return e.Stats().Frames == 1 })
	// B, C and D fill the queue to the high watermark; the crossing submit
	// steps the ladder down.
	for q := 1; q <= 3; q++ {
		wg.Add(1)
		go submit()
		waitUntil(t, "frame to queue", func() bool { return e.Stats().QueueLen == q })
	}
	waitUntil(t, "ladder to step down", func() bool { return e.Stats().StepDowns == 1 })
	if e.Stats().Tier != 1 {
		t.Fatalf("tier = %d after step-down, want 1", e.Stats().Tier)
	}
	for i := 0; i < 4; i++ {
		gate <- struct{}{}
	}
	// A and B finished with 3 and 2 queued, C and D calm with 1 and 0: two
	// more calm frames, E and F, complete the ladderHysteresis streak.
	for i := 0; i < ladderHysteresis-2; i++ {
		wg.Add(1)
		go submit()
		gate <- struct{}{}
	}
	wg.Wait()
	close(tiers)
	var got []int
	for tr := range tiers {
		got = append(got, tr)
	}
	// A ran at full fidelity; B to F were served degraded.
	zeros, ones := 0, 0
	for _, tr := range got {
		switch tr {
		case 0:
			zeros++
		case 1:
			ones++
		default:
			t.Fatalf("unexpected tier %d in %v", tr, got)
		}
	}
	if zeros != 1 || ones != 5 {
		t.Fatalf("tiers %v, want one full-fidelity and five degraded", got)
	}
	// The calm streak stepped the ladder back up. The worker tells the
	// ladder a frame is done after it has delivered the frame's result.
	waitUntil(t, "ladder to step back up", func() bool { return e.Stats().StepUps == 1 })
	s := e.Stats()
	if s.Tier != 0 || s.StepUps != 1 {
		t.Fatalf("tier=%d stepUps=%d after drain, want 0/1", s.Tier, s.StepUps)
	}
	if s.Degraded[0] != 1 || s.Degraded[1] != 5 {
		t.Fatalf("Degraded = %v, want [1 5]", s.Degraded)
	}
	// Recovery is live: the next frame serves at full fidelity again.
	done := make(chan Result, 1)
	go func() {
		res, err := e.Submit(context.Background(), Request{Cloud: cloud})
		if err != nil {
			t.Errorf("post-recovery submit: %v", err)
		}
		done <- res
	}()
	gate <- struct{}{}
	if res := <-done; res.Tier != 0 {
		t.Fatalf("post-recovery tier = %d, want 0", res.Tier)
	}
}

func TestDelayAndStallInjection(t *testing.T) {
	const pause = 5 * time.Millisecond
	cloud := testCloud()
	for _, tc := range []struct {
		name string
		plan *faultinject.Plan
	}{
		{"delay", &faultinject.Plan{Seed: 5, DelayFrac: 1, Delay: pause}},
		{"stall", &faultinject.Plan{Seed: 5, StallFrac: 1, Stall: pause}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newStubEngine(t, nil, Config{Faults: tc.plan})
			defer e.Close()
			res, err := e.Submit(context.Background(), Request{Cloud: cloud})
			if err != nil {
				t.Fatal(err)
			}
			if res.Total < pause {
				t.Fatalf("Total = %v, want ≥ %v (injected %s)", res.Total, pause, tc.name)
			}
		})
	}
}

func TestCorruptInjectionIsCaughtAtAdmission(t *testing.T) {
	e := newStubEngine(t, nil, Config{Faults: &faultinject.Plan{Seed: 8, CorruptFrac: 1}})
	defer e.Close()
	cloud := testCloud()
	orig := cloud.Clone()
	_, err := e.Submit(context.Background(), Request{Cloud: cloud})
	if !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("corrupted frame: %v, want ErrInvalidInput (admission must catch it)", err)
	}
	for i := range cloud.Points {
		if cloud.Points[i] != orig.Points[i] {
			t.Fatal("corrupt injection mutated the caller's cloud")
		}
	}
	s := e.Stats()
	if s.Invalid != 1 || s.Submitted != 0 || s.Panics != 0 {
		t.Fatalf("corrupted frame reached a worker: %+v", s)
	}
}

// strictStubNet panics if an invalid frame ever reaches Forward — the
// admission invariant the fuzz target leans on. The id field keeps distinct
// instances at distinct addresses (zero-size values would alias and trip
// New's exclusive-replica check).
type strictStubNet struct{ id int }

func (s *strictStubNet) Forward(cloud *geom.Cloud, trace *model.Trace, train bool) (*model.Output, error) {
	if cloud == nil || cloud.Len() == 0 {
		panic("admitted nil/empty cloud")
	}
	for _, p := range cloud.Points {
		if !p.IsFinite() {
			panic("admitted non-finite coordinates")
		}
	}
	if err := cloud.Validate(); err != nil {
		panic(err)
	}
	return &model.Output{Logits: tensor.New(1, 2)}, nil
}

func (s *strictStubNet) Backward(grad *tensor.Matrix) error { return nil }
func (s *strictStubNet) Params() []*nn.Param                { return nil }

// TestAdmissionRejectsOverflowingSpan: a finite cloud so wide that its
// squared distances reach the searches' 1e300 "nothing found" sentinel is
// invalid input, rejected at admission with the planner's own check; one
// just inside the bound is admitted.
func TestAdmissionRejectsOverflowingSpan(t *testing.T) {
	e := newStubEngine(t, nil, Config{})
	defer e.Close()
	scaled := func(s float64) *geom.Cloud {
		c := testCloud()
		for i := range c.Points {
			c.Points[i] = c.Points[i].Scale(s)
		}
		return c
	}
	if _, err := e.Submit(context.Background(), Request{Cloud: scaled(1e150)}); !errors.Is(err, ErrInvalidInput) || !strings.Contains(err.Error(), "diagonal") {
		t.Fatalf("cloud scaled by 1e150: got %v, want ErrInvalidInput naming the diagonal", err)
	}
	if _, err := e.Submit(context.Background(), Request{Cloud: scaled(1e148)}); err != nil {
		t.Fatalf("cloud scaled by 1e148: %v", err)
	}
	if s := e.Stats(); s.Invalid != 1 {
		t.Fatalf("Invalid = %d, want 1", s.Invalid)
	}
}
