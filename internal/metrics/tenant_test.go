package metrics

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestTenantWindowsCounts(t *testing.T) {
	tw := NewTenantWindows(0)
	tw.Count("a", TenantCompleted)
	tw.Count("a", TenantCompleted)
	tw.Count("a", TenantShed)
	tw.Count("b", TenantFailed)
	tw.Count("a", TenantOutcome(99)) // out of range: ignored
	snap := tw.Snapshot()
	a := snap["a"]
	if a.Completed != 2 || a.Shed != 1 || a.Failed != 0 {
		t.Fatalf("tenant a: %+v", a)
	}
	if b := snap["b"]; b.Failed != 1 {
		t.Fatalf("tenant b: %+v", b)
	}
	if tw.Len() != 2 {
		t.Fatalf("len = %d", tw.Len())
	}
}

func TestTenantWindowsOverflow(t *testing.T) {
	tw := NewTenantWindows(2)
	tw.Count("a", TenantCompleted)
	tw.Count("b", TenantCompleted)
	// Tenants past the cardinality cap aggregate under OverflowTenant.
	tw.Count("c", TenantShed)
	tw.Count("d", TenantShed)
	if tw.Len() != 2 {
		t.Fatalf("len = %d, want cap 2", tw.Len())
	}
	snap := tw.Snapshot()
	ov, ok := snap[OverflowTenant]
	if !ok {
		t.Fatal("no overflow bucket in snapshot")
	}
	if ov.Shed != 2 {
		t.Fatalf("overflow: %+v", ov)
	}
	if _, ok := snap["c"]; ok {
		t.Fatal("capped tenant got a private entry")
	}
}

func TestTenantWindowsConcurrent(t *testing.T) {
	tw := NewTenantWindows(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("t%d", (g*200+i)%100)
				tw.Count(id, TenantCompleted)
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	for _, s := range tw.Snapshot() {
		total += s.Completed
	}
	if total != 1600 {
		t.Fatalf("completions = %d, want 1600", total)
	}
}

func TestJainFairness(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 1},
		{[]float64{0, 0, 0}, 1},
		{[]float64{5, 5, 5, 5}, 1},
		{[]float64{1, 0, 0, 0}, 0.25}, // one tenant starves the rest: 1/n
		{[]float64{1, 1, 0, 0}, 0.5},
	}
	for _, tc := range cases {
		if got := JainFairness(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("JainFairness(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
	// Monotone: more even → higher index.
	if JainFairness([]float64{9, 1}) >= JainFairness([]float64{6, 4}) {
		t.Fatal("fairness not ordered by evenness")
	}
}
