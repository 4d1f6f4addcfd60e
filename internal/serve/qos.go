package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Tenant QoS: per-tenant token buckets and priority classes, the admission
// layer the fleet router runs *before* a frame reaches any engine queue
// (DESIGN.md §13). The ordering of the overload mechanisms is deliberate:
//
//	1. token bucket  — a tenant exceeding its contracted rate is throttled,
//	                   whatever the fleet load (isolation);
//	2. load shedding — under fleet-wide pressure, low-priority classes are
//	                   shed first (shed.go);
//	3. degradation   — only after shedding has trimmed the low classes does
//	                   the per-engine ladder cheapen high-priority tiers.
//
// All decisions are driven through an injectable Clock so tests (and the
// loadgen simulator) replay exact admit/reject sequences in virtual time
// with zero wall-clock sleeps.

// Clock abstracts time for the QoS layer and router. Production code leaves
// it nil (time.Now); tests and the loadgen simulator inject virtual clocks.
type Clock func() time.Time

// Priority is a tenant's service class. Lower values are more important:
// under fleet overload the shed controller drops the highest values first
// and PriorityHigh is never shed (the degradation ladder handles it).
type Priority uint8

const (
	// PriorityHigh is never load-shed; overload degrades it via the ladder.
	PriorityHigh Priority = iota
	// PriorityNormal is shed only at the deepest shed level.
	PriorityNormal
	// PriorityLow is the first class shed under fleet pressure.
	PriorityLow
	// NumPriorities is the number of service classes.
	NumPriorities = 3
)

var priorityNames = [NumPriorities]string{"high", "normal", "low"}

// String names the priority class.
func (p Priority) String() string {
	if int(p) < len(priorityNames) {
		return priorityNames[p]
	}
	return fmt.Sprintf("priority(%d)", uint8(p))
}

// ParsePriority maps a class name back to its Priority.
func ParsePriority(s string) (Priority, error) {
	for i, n := range priorityNames {
		if n == s {
			return Priority(i), nil
		}
	}
	return 0, fmt.Errorf("serve: unknown priority %q (want high, normal or low)", s)
}

// ErrThrottled reports a frame rejected by its tenant's token bucket: the
// tenant is over its contracted rate and spending burst credit it does not
// have. Match with errors.Is.
var ErrThrottled = errors.New("serve: tenant throttled")

// TenantLimit is one tenant's QoS contract.
type TenantLimit struct {
	// Rate is the sustained admission rate in frames/second. Zero or
	// negative means unlimited (the bucket never empties).
	Rate float64
	// Burst is the bucket capacity: how many frames a tenant may burst above
	// its sustained rate after idling. Defaults to max(Rate, 1).
	Burst float64
	// Priority is the tenant's service class for load shedding.
	Priority Priority
}

func (l TenantLimit) withDefaults() TenantLimit {
	if l.Burst <= 0 {
		l.Burst = l.Rate
		if l.Burst < 1 {
			l.Burst = 1
		}
	}
	return l
}

// QoSConfig configures the per-tenant admission layer.
type QoSConfig struct {
	// Default is the limit applied to tenants with no explicit entry and no
	// Classify hook.
	Default TenantLimit
	// Tenants holds explicit per-tenant contracts.
	Tenants map[string]TenantLimit
	// Classify, when non-nil, resolves the limit for a tenant seen for the
	// first time that has no Tenants entry — the hook that lets a caller
	// assign priority classes programmatically (hash-based class mixes in
	// the loadgen harness) without materializing a map of every tenant.
	Classify func(tenant string) TenantLimit
	// MaxTenants bounds bucket cardinality: once this many distinct tenants
	// hold buckets, further unknown tenants share one overflow bucket under
	// the Default limit, so an unbounded tenant-id space cannot exhaust
	// memory. Default 1 << 20.
	MaxTenants int
	// Clock injects a time source; nil means time.Now.
	Clock Clock
}

// bucket is one tenant's token bucket. Guarded by QoS.mu.
type bucket struct {
	limit  TenantLimit
	tokens float64
	last   time.Time
}

// QoS is the per-tenant admission layer: one token bucket per tenant,
// refilled continuously at the tenant's contracted rate, capped at its burst
// capacity. Safe for concurrent use.
type QoS struct {
	mu       sync.Mutex
	cfg      QoSConfig
	now      Clock
	buckets  map[string]*bucket
	overflow *bucket

	admitted  uint64
	throttled uint64
}

// NewQoS creates the admission layer. The zero QoSConfig admits everything
// (unlimited default rate) at PriorityNormal-equivalent default class.
func NewQoS(cfg QoSConfig) *QoS {
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = 1 << 20
	}
	now := cfg.Clock
	if now == nil {
		now = time.Now
	}
	return &QoS{cfg: cfg, now: now, buckets: make(map[string]*bucket)}
}

// resolve returns the limit contract for a tenant seen for the first time.
func (q *QoS) resolve(tenant string) TenantLimit {
	if l, ok := q.cfg.Tenants[tenant]; ok {
		return l.withDefaults()
	}
	if q.cfg.Classify != nil {
		return q.cfg.Classify(tenant).withDefaults()
	}
	return q.cfg.Default.withDefaults()
}

// Admit charges one frame to the tenant's bucket and returns the tenant's
// priority class. An empty bucket rejects with an error matching
// ErrThrottled; the frame never reaches a router or engine queue. A new
// tenant's bucket starts full (its burst credit is immediately spendable).
func (q *QoS) Admit(tenant string) (Priority, error) {
	now := q.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	b, ok := q.buckets[tenant]
	if !ok {
		limit := q.resolve(tenant)
		if len(q.buckets) >= q.cfg.MaxTenants {
			if q.overflow == nil {
				def := q.cfg.Default.withDefaults()
				q.overflow = &bucket{limit: def, tokens: def.Burst, last: now}
			}
			b = q.overflow
		} else {
			b = &bucket{limit: limit, tokens: limit.Burst, last: now}
			q.buckets[tenant] = b
		}
	}
	if b.limit.Rate <= 0 { // unlimited contract
		q.admitted++
		return b.limit.Priority, nil
	}
	if el := now.Sub(b.last); el > 0 {
		b.tokens += float64(el.Seconds() * b.limit.Rate)
		if b.tokens > b.limit.Burst {
			b.tokens = b.limit.Burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		q.throttled++
		return b.limit.Priority, fmt.Errorf("%w: tenant %q over rate %.3g/s", ErrThrottled, tenant, b.limit.Rate)
	}
	b.tokens--
	q.admitted++
	return b.limit.Priority, nil
}

// Limit reports the contract a tenant resolves to (without creating its
// bucket), for display and tests.
func (q *QoS) Limit(tenant string) TenantLimit {
	q.mu.Lock()
	defer q.mu.Unlock()
	if b, ok := q.buckets[tenant]; ok {
		return b.limit
	}
	return q.resolve(tenant)
}

// QoSStats is a snapshot of the admission layer's counters.
type QoSStats struct {
	Admitted  uint64 // frames the buckets let through
	Throttled uint64 // frames rejected with ErrThrottled
	Tenants   int    // distinct tenants holding buckets
}

// Stats snapshots the counters.
func (q *QoS) Stats() QoSStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QoSStats{Admitted: q.admitted, Throttled: q.throttled, Tenants: len(q.buckets)}
}
