package metrics

import "sync"

// Per-tenant serving counters for the fleet layer: each tenant gets its own
// outcome counts, with bounded cardinality — a serving tier facing millions
// of tenant ids must not let the map grow without limit, so past the cap all
// further unknown tenants aggregate into one overflow bucket under
// OverflowTenant. Latency is kept fleet-wide, not per tenant.

// OverflowTenant is the snapshot key holding the aggregate of every tenant
// beyond the cardinality cap.
const OverflowTenant = "~other"

// DefaultMaxTenants is the cap on tenants with counters of their own when
// none is given.
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

// tenantCounts is one tenant's outcome counters; guarded by TenantWindows.mu.
type tenantCounts [numTenantOutcomes]uint64

// TenantWindows maps tenant ids to outcome counters. Safe for concurrent use.
type TenantWindows struct {
	mu       sync.Mutex
	maxT     int // tenant cardinality cap
	m        map[string]*tenantCounts
	overflow *tenantCounts
}

// NewTenantWindows builds the registry; maxTenants bounds cardinality
// (DefaultMaxTenants when <= 0).
func NewTenantWindows(maxTenants int) *TenantWindows {
	if maxTenants <= 0 {
		maxTenants = DefaultMaxTenants
	}
	return &TenantWindows{maxT: maxTenants, m: make(map[string]*tenantCounts)}
}

// Count records one request outcome for a tenant.
func (t *TenantWindows) Count(tenant string, o TenantOutcome) {
	if o < 0 || o >= numTenantOutcomes {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.m[tenant]
	switch {
	case ok:
	case len(t.m) < t.maxT:
		c = new(tenantCounts)
		t.m[tenant] = c
	default:
		if t.overflow == nil {
			t.overflow = new(tenantCounts)
		}
		c = t.overflow
	}
	c[o]++
}

// Len reports the number of tenants holding counters of their own.
func (t *TenantWindows) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// TenantSnapshot is one tenant's point-in-time counts.
type TenantSnapshot struct {
	Completed uint64
	Shed      uint64
	Failed    uint64
}

// Snapshot returns every tenant's counts; the overflow aggregate, if any
// traffic landed there, appears under OverflowTenant.
func (t *TenantWindows) Snapshot() map[string]TenantSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]TenantSnapshot, len(t.m)+1)
	for k, c := range t.m {
		out[k] = c.snapshot()
	}
	if t.overflow != nil {
		out[OverflowTenant] = t.overflow.snapshot()
	}
	return out
}

func (c *tenantCounts) snapshot() TenantSnapshot {
	return TenantSnapshot{Completed: c[TenantCompleted], Shed: c[TenantShed], Failed: c[TenantFailed]}
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
		sq += float64(x * x)
	}
	if sq <= 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}
