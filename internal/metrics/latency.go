package metrics

import (
	"sort"
	"sync"
	"time"
)

// LatencyWindow is a concurrency-safe sliding window of duration samples for
// online serving metrics: the last Capacity observations are retained in a
// ring buffer and summarized on demand (p50/p90/p99, mean, max). A sliding
// window — rather than an all-time histogram — is the right shape for a
// long-running server: the quantiles track the *current* load regime instead
// of being diluted by hours-old samples.
type LatencyWindow struct {
	mu      sync.Mutex
	samples []time.Duration
	next    int    // ring write cursor
	filled  int    // valid entries, ≤ len(samples)
	total   uint64 // all-time observation count
}

// DefaultLatencyWindow is the window capacity used when none is given.
const DefaultLatencyWindow = 1024

// NewLatencyWindow creates a window retaining the last capacity samples
// (DefaultLatencyWindow when capacity <= 0).
func NewLatencyWindow(capacity int) *LatencyWindow {
	if capacity <= 0 {
		capacity = DefaultLatencyWindow
	}
	return &LatencyWindow{samples: make([]time.Duration, capacity)}
}

// Observe records one duration sample. Safe for concurrent use.
func (w *LatencyWindow) Observe(d time.Duration) {
	w.mu.Lock()
	w.samples[w.next] = d
	w.next = (w.next + 1) % len(w.samples)
	if w.filled < len(w.samples) {
		w.filled++
	}
	w.total++
	w.mu.Unlock()
}

// LatencySnapshot summarizes a LatencyWindow at one instant. Quantiles use
// the nearest-rank convention over the retained window.
type LatencySnapshot struct {
	Count         uint64 // all-time observations
	Window        int    // samples the quantiles are computed over
	Mean          time.Duration
	P50, P90, P99 time.Duration
	Max           time.Duration
}

// Snapshot computes the current summary. Cost is O(window log window); callers
// poll it at reporting frequency, not per request.
func (w *LatencyWindow) Snapshot() LatencySnapshot {
	w.mu.Lock()
	s := LatencySnapshot{Count: w.total, Window: w.filled}
	buf := make([]time.Duration, w.filled)
	if w.filled < len(w.samples) {
		copy(buf, w.samples[:w.filled])
	} else {
		copy(buf, w.samples)
	}
	w.mu.Unlock()
	if len(buf) == 0 {
		return s
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	var sum time.Duration
	for _, d := range buf {
		sum += d
	}
	s.Mean = sum / time.Duration(len(buf))
	s.P50 = quantileDur(buf, 0.50)
	s.P90 = quantileDur(buf, 0.90)
	s.P99 = quantileDur(buf, 0.99)
	s.Max = buf[len(buf)-1]
	return s
}

// quantileDur returns the nearest-rank q-quantile of an ascending slice.
func quantileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(float64(q*float64(len(sorted))) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
