package core

import (
	"fmt"
	"sort"
)

// Neighbor-index reuse (§5.2.3): in DGCNN, all EdgeConv modules operate on
// the same point set, and "during the propagation of the CNN model, the
// neighborhood of points would not vary much across consecutive layers". With
// reuse distance 1, layer 2 reuses layer 1's neighbor indexes, layer 3
// recomputes (with the SOTA searcher over feature-space distances), layer 4
// reuses layer 3's, and so on — halving the neighbor-search work at the cost
// of caching one n×k index array (the paper's ≤160 KB per batch).

// ReusePolicy decides, per layer, whether neighbor indexes are recomputed or
// reused from the most recent computing layer.
type ReusePolicy struct {
	// Distance is the number of consecutive layers served by one computed
	// result minus one: 0 disables reuse (every layer computes); 1 is the
	// paper's setting (compute, reuse, compute, reuse, …); 2 computes every
	// third layer.
	Distance int
}

// Computes reports whether the given layer (0-based) must run its own
// neighbor search under this policy. Layer 0 always computes.
func (r ReusePolicy) Computes(layer int) bool {
	if r.Distance <= 0 || layer <= 0 {
		return true
	}
	return layer%(r.Distance+1) == 0
}

// ComputedLayers returns how many of nLayers run a real neighbor search.
func (r ReusePolicy) ComputedLayers(nLayers int) int {
	count := 0
	for l := 0; l < nLayers; l++ {
		if r.Computes(l) {
			count++
		}
	}
	return count
}

// ReuseBufferBytes returns the memory held to carry neighbor indexes between
// layers: one int32 per (query, neighbor) entry when reuse is enabled
// (§5.2.3 accounts up to 160 KB per batch for the reused search data).
func (r ReusePolicy) ReuseBufferBytes(queries, k int) int {
	if r.Distance <= 0 {
		return 0
	}
	return queries * k * 4
}

// ReuseEntry is a cached neighbor-search result: the flat query-major index
// array, the neighbors per query it was computed with, and the index domain
// its values refer to. For DGCNN every EdgeConv layer shares one point set,
// so the domain never changes; for PointNet++ each SA module indexes its own
// (down-sampled) parent level, so reusing across layers requires projecting
// the cached indexes into the new domain first.
type ReuseEntry struct {
	Nbr    []int
	K      int
	Domain int
}

// ReuseCache carries neighbor results across layers under a policy.
// The zero value is not ready; use NewReuseCache.
type ReuseCache struct {
	policy ReusePolicy
	last   ReuseEntry
	valid  bool
}

// NewReuseCache creates a cache applying the given policy.
func NewReuseCache(policy ReusePolicy) *ReuseCache {
	return &ReuseCache{policy: policy}
}

// Reset forgets the cached result so the cache can serve a new frame.
func (c *ReuseCache) Reset() {
	c.last = ReuseEntry{}
	c.valid = false
}

// ForLayer returns the neighbor indexes for the given layer: if the policy
// says this layer computes, compute() is invoked and its result cached;
// otherwise the cached result is returned. It reports whether a real search
// ran. All layers share index domain 0 (the DGCNN shape, where every
// EdgeConv sees the same point set).
func (c *ReuseCache) ForLayer(layer, k int, compute func() ([]int, error)) ([]int, bool, error) {
	return c.ForLayerIn(layer, k, 0, nil, compute)
}

// ForLayerIn is the domain-aware form of ForLayer for hierarchical networks
// whose layers index different point sets (PointNet++ SA modules index their
// own parent level). domain identifies the point set the layer's indexes
// refer to. When the cached entry lives in a different domain, adapt — if
// non-nil — projects it into the current one and the projected result is
// cached in the new domain (so a reuse distance of 2 projects hop by hop);
// a nil adapt falls back to a real search. It reports whether a real search
// ran (false on any reuse, projected or not).
func (c *ReuseCache) ForLayerIn(layer, k, domain int, adapt func(ReuseEntry) ([]int, error), compute func() ([]int, error)) ([]int, bool, error) {
	if !c.WillCompute(layer, domain, adapt != nil) {
		if c.last.Domain == domain {
			if k != c.last.K {
				return nil, false, fmt.Errorf("core: reuse with k=%d but cached k=%d", k, c.last.K)
			}
			return c.last.Nbr, false, nil
		}
		res, err := adapt(c.last)
		if err != nil {
			return nil, false, fmt.Errorf("core: reuse projection: %w", err)
		}
		c.last = ReuseEntry{Nbr: res, K: k, Domain: domain}
		return res, false, nil
	}
	res, err := compute()
	if err != nil {
		return nil, true, err
	}
	c.last = ReuseEntry{Nbr: res, K: k, Domain: domain}
	c.valid = true
	return res, true, nil
}

// WillCompute reports whether ForLayerIn(layer, _, domain, adapt, compute)
// would call compute — adapt says whether that call passes a non-nil adapt —
// so that a caller can start the search before it asks.
func (c *ReuseCache) WillCompute(layer, domain int, adapt bool) bool {
	// Without a way to carry the cached result into this domain, a reusing
	// layer searches too.
	return c.policy.Computes(layer) || !c.valid || c.last.Domain != domain && !adapt
}

// ProjectNeighbors carries a cached neighbor result one level down a
// sampling hierarchy (§5.2.3 generalized to PointNet++): prev holds, for
// every point of the current parent level, the neighbors that point had in
// the grandparent level (it was a query there). sel lists the current
// queries as parent-level indexes, and posInParent maps each parent-level
// index to its grandparent-level index (ascending — the Morton-sampling
// invariant). Cached neighbors that survived sampling are remapped into
// parent-level indexes; slots whose neighbor was dropped pad with the query
// itself, so every query keeps exactly k neighbors.
func ProjectNeighbors(prev ReuseEntry, sel, posInParent []int, k int) ([]int, error) {
	if prev.K <= 0 || len(prev.Nbr) != len(posInParent)*prev.K {
		return nil, fmt.Errorf("core: cached neighbors cover %d entries, parent level needs %d×%d", len(prev.Nbr), len(posInParent), prev.K)
	}
	out := make([]int, len(sel)*k)
	for q, s := range sel {
		if s < 0 || s >= len(posInParent) {
			return nil, fmt.Errorf("core: query %d selects parent index %d of %d", q, s, len(posInParent))
		}
		row := prev.Nbr[s*prev.K : (s+1)*prev.K]
		dst := out[q*k : (q+1)*k]
		cnt := 0
		for _, v := range row {
			if cnt == k {
				break
			}
			// posInParent is ascending, so the grandparent index v maps to at
			// most one surviving parent position.
			p := sort.SearchInts(posInParent, v)
			if p < len(posInParent) && posInParent[p] == v {
				dst[cnt] = p
				cnt++
			}
		}
		for ; cnt < k; cnt++ {
			dst[cnt] = s // self-neighbor padding
		}
	}
	return out, nil
}
