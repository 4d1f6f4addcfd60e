package main

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/serve"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := schedule(7, 20*time.Second, 165, 590, 16)
	b := schedule(7, 20*time.Second, 165, 590, 16)
	c := schedule(8, 20*time.Second, 165, 590, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same schedule")
	}
	for i, x := range a {
		if i > 0 && x.due < a[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		if x.tenant < 0 || x.tenant >= tenants || x.frame != i%16 {
			t.Fatalf("arrival %d: tenant %d frame %d", i, x.tenant, x.frame)
		}
	}
}

func TestSchedulePhaseRates(t *testing.T) {
	// At the benchmark's own run length, for several seeds: every seed must
	// offer the nominal load in every phase of every cycle, not only on
	// average.
	const total, cycles = 20 * time.Second, 8
	cycle := total.Seconds() / cycles
	edges := [4]float64{0, burstStart * cycle, burstEnd * cycle, cycle}
	for seed := int64(1); seed <= 5; seed++ {
		var counts [cycles][3]float64
		for _, a := range schedule(seed, total, 165, 590, 16) {
			c := int(a.due.Seconds() / cycle)
			switch s := a.due.Seconds() - float64(c)*cycle; {
			case s < edges[1]:
				counts[c][0]++
			case s < edges[2]:
				counts[c][1]++
			default:
				counts[c][2]++
			}
		}
		for c := range counts {
			for p, want := range []float64{165, 590, 165} {
				got := counts[c][p] / (edges[p+1] - edges[p])
				if math.Abs(got-want)/want > 0.03 {
					t.Errorf("seed %d cycle %d phase %d: %.2f arrivals/s, want %.0f within 3 %%", seed, c, p, got, want)
				}
			}
		}
	}
}

func TestScheduleShorterThanACycleIsOneCycle(t *testing.T) {
	// The smoke pass replays half a second: one calm, burst, calm.
	sched := schedule(1, 500*time.Millisecond, 300, 3000, 4)
	if want := 60 + 300 + 60; len(sched) != want {
		t.Fatalf("%d arrivals, want %d", len(sched), want)
	}
	if first, last := sched[60].due, sched[359].due; first < 200*time.Millisecond || last >= 300*time.Millisecond {
		t.Fatalf("the burst runs from %v to %v, want inside 200ms to 300ms", first, last)
	}
}

// stallingServer serves one request at a time and stalls on the first: what
// a wedged engine looks like to requests that arrive behind it.
type stallingServer struct {
	mu    sync.Mutex
	calls int
	stall time.Duration
}

func (s *stallingServer) Submit(context.Context, serve.FleetRequest) (serve.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.calls++; s.calls == 1 {
		time.Sleep(s.stall)
	}
	return serve.Result{}, nil
}

func TestOpenLoopLatencyCountsTheStall(t *testing.T) {
	const stall = 50 * time.Millisecond
	sched := make([]arrival, 6)
	for i := range sched {
		sched[i] = arrival{due: time.Duration(i) * 5 * time.Millisecond}
	}
	replies := replay(&stallingServer{stall: stall}, sched, []string{"t"}, []*geom.Cloud{nil})
	for i, r := range replies {
		if r.err != nil {
			t.Fatal(r.err)
		}
		// The generator never waits for a reply: every request leaves on
		// time although the first one is stuck for 50 ms.
		if late := r.sent - r.due; late > 20*time.Millisecond {
			t.Errorf("request %d left %v late: the generator waited", i, late)
		}
		// Requests behind the stall are served instantly once it clears, yet
		// each waited for it, and that wait is theirs.
		if want := stall - r.due; r.latency() < want {
			t.Errorf("request %d: latency %v, want at least %v", i, r.latency(), want)
		}
	}
	// Latency runs from the due time: a request the generator sent 50 ms
	// late and that was served in 1 ms took 51 ms.
	r := reply{arrival: arrival{due: 10 * time.Millisecond}, sent: 60 * time.Millisecond, done: 61 * time.Millisecond}
	if r.latency() != 51*time.Millisecond {
		t.Errorf("latency %v, want 51ms from the due time", r.latency())
	}
}
