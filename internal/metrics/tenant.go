package metrics

import (
	"sync"
	"time"
)

// Per-tenant serving metrics for the fleet layer: each tenant gets its own
// sliding latency window plus outcome counters, with bounded cardinality —
// a serving tier facing millions of tenant ids must not let the metrics map
// grow without limit, so past the cap all further unknown tenants aggregate
// into one overflow bucket under OverflowTenant.

// OverflowTenant is the snapshot key holding the aggregate of every tenant
// beyond the cardinality cap.
const OverflowTenant = "~other"

// DefaultMaxTenants is the cap on tenants with windows of their own when none
// is given.
const DefaultMaxTenants = 4096

// TenantOutcome classifies one counted request outcome.
type TenantOutcome int

const (
	// TenantCompleted counts frames served successfully.
	TenantCompleted TenantOutcome = iota
	// TenantShed counts frames dropped before reaching an engine (throttle,
	// priority shed, or full queues).
	TenantShed
	// TenantFailed counts frames that reached an engine and failed.
	TenantFailed
	numTenantOutcomes
)

// tenantEntry is one tenant's window and counters; guarded by TenantWindows.mu.
type tenantEntry struct {
	win    *LatencyWindow
	counts [numTenantOutcomes]uint64
}

// TenantWindows maps tenant ids to latency windows and outcome counters.
// Safe for concurrent use.
type TenantWindows struct {
	mu       sync.Mutex
	capacity int // per-window sample capacity
	maxT     int // tenant cardinality cap
	m        map[string]*tenantEntry
	overflow *tenantEntry
}

// NewTenantWindows builds the registry. capacity sizes each tenant's latency
// window (DefaultLatencyWindow when <= 0); maxTenants bounds cardinality
// (DefaultMaxTenants when <= 0).
func NewTenantWindows(capacity, maxTenants int) *TenantWindows {
	if maxTenants <= 0 {
		maxTenants = DefaultMaxTenants
	}
	return &TenantWindows{
		capacity: capacity,
		maxT:     maxTenants,
		m:        make(map[string]*tenantEntry),
	}
}

// entry returns the tenant's entry, creating it (or falling back to the
// overflow bucket) as needed. Caller holds mu.
func (t *TenantWindows) entry(tenant string) *tenantEntry {
	if e, ok := t.m[tenant]; ok {
		return e
	}
	if len(t.m) >= t.maxT {
		if t.overflow == nil {
			t.overflow = &tenantEntry{win: NewLatencyWindow(t.capacity)}
		}
		return t.overflow
	}
	e := &tenantEntry{win: NewLatencyWindow(t.capacity)}
	t.m[tenant] = e
	return e
}

// Observe records one completion latency for a tenant.
func (t *TenantWindows) Observe(tenant string, d time.Duration) {
	t.mu.Lock()
	e := t.entry(tenant)
	t.mu.Unlock()
	e.win.Observe(d)
}

// Count records one request outcome for a tenant.
func (t *TenantWindows) Count(tenant string, o TenantOutcome) {
	if o < 0 || o >= numTenantOutcomes {
		return
	}
	t.mu.Lock()
	t.entry(tenant).counts[o]++
	t.mu.Unlock()
}

// Len reports the number of tenants holding private windows.
func (t *TenantWindows) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// TenantSnapshot is one tenant's point-in-time metrics.
type TenantSnapshot struct {
	Completed uint64
	Shed      uint64
	Failed    uint64
	Latency   LatencySnapshot
}

// Snapshot returns every tenant's metrics; the overflow aggregate, if any
// traffic landed there, appears under OverflowTenant.
func (t *TenantWindows) Snapshot() map[string]TenantSnapshot {
	t.mu.Lock()
	entries := make(map[string]*tenantEntry, len(t.m)+1)
	for k, e := range t.m {
		entries[k] = e
	}
	if t.overflow != nil {
		entries[OverflowTenant] = t.overflow
	}
	t.mu.Unlock()
	out := make(map[string]TenantSnapshot, len(entries))
	for k, e := range entries {
		t.mu.Lock()
		counts := e.counts
		t.mu.Unlock()
		out[k] = TenantSnapshot{
			Completed: counts[TenantCompleted],
			Shed:      counts[TenantShed],
			Failed:    counts[TenantFailed],
			Latency:   e.win.Snapshot(),
		}
	}
	return out
}

// JainFairness is Jain's fairness index over per-tenant allocations:
// (Σx)² / (n·Σx²), 1 when every tenant gets an equal share, → 1/n as one
// tenant starves the rest. Zero-allocation tenants count; an empty or
// all-zero slice returns 1 (nothing to be unfair about).
func JainFairness(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq <= 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}
