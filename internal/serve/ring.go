package serve

import (
	"fmt"
	"sort"
)

// Consistent-hash ring for the fleet router: tenant/stream keys map to
// engines through a ring of virtual nodes, so adding or removing an engine
// remaps only the key fraction that consistent hashing promises (~1/N on
// add; exactly the removed engine's keys on removal) instead of reshuffling
// the whole fleet. Stream affinity — equal keys always landing on the same
// engine — is what keeps a stream's frames hitting one engine's warm caches.

// DefaultVNodes is the virtual-node count per engine when a Ring or Router
// is built with zero. 128 vnodes bound the per-engine load imbalance over
// random keys to roughly ±25% of the mean in practice (see the quick
// property test, which documents and enforces a 2× ceiling).
const DefaultVNodes = 128

// Ring is an immutable consistent-hash ring over engine ids. Build with
// NewRing or NewRingOf; safe for concurrent use.
type Ring struct {
	hashes []uint64 // sorted vnode positions
	owner  []int32  // engine id owning hashes[i]
	ids    []int    // distinct engine ids on the ring
}

// NewRing builds a ring over engine ids 0..engines-1.
func NewRing(engines, vnodes int) (*Ring, error) {
	if engines < 1 {
		return nil, fmt.Errorf("serve: ring needs at least one engine")
	}
	ids := make([]int, engines)
	for i := range ids {
		ids[i] = i
	}
	return NewRingOf(ids, vnodes)
}

// NewRingOf builds a ring over an explicit engine id set — the form the
// remap properties are stated in: NewRingOf(ids minus e) is exactly the ring
// after engine e is removed, because a vnode's position depends only on its
// own (id, replica) pair.
func NewRingOf(ids []int, vnodes int) (*Ring, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("serve: ring needs at least one engine")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[int]bool, len(ids))
	r := &Ring{
		hashes: make([]uint64, 0, len(ids)*vnodes),
		owner:  make([]int32, 0, len(ids)*vnodes),
		ids:    append([]int(nil), ids...),
	}
	for _, id := range ids {
		if id < 0 {
			return nil, fmt.Errorf("serve: negative engine id %d", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("serve: duplicate engine id %d", id)
		}
		seen[id] = true
		for v := 0; v < vnodes; v++ {
			r.hashes = append(r.hashes, vnodeHash(id, v))
			r.owner = append(r.owner, int32(id))
		}
	}
	// Sort positions; ties (astronomically rare) break on owner id so the
	// ring is deterministic regardless of construction order.
	idx := make([]int, len(r.hashes))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ha, hb := r.hashes[idx[a]], r.hashes[idx[b]]
		if ha != hb {
			return ha < hb
		}
		return r.owner[idx[a]] < r.owner[idx[b]]
	})
	hashes := make([]uint64, len(idx))
	owner := make([]int32, len(idx))
	for i, j := range idx {
		hashes[i] = r.hashes[j]
		owner[i] = r.owner[j]
	}
	r.hashes, r.owner = hashes, owner
	return r, nil
}

// Engines returns the distinct engine ids on the ring.
func (r *Ring) Engines() []int { return r.ids }

// Lookup maps a key to its owning engine: the first vnode clockwise of the
// key's hash.
func (r *Ring) Lookup(key string) int {
	return r.LookupHash(KeyHash(key))
}

// LookupHash is Lookup over a pre-computed key hash — the allocation-free
// form the loadgen simulator uses for integer tenant/stream ids.
func (r *Ring) LookupHash(h uint64) int {
	return int(r.owner[r.succ(h)])
}

// succ returns the index of the first vnode at or clockwise of h.
func (r *Ring) succ(h uint64) int {
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		return 0
	}
	return i
}

// Candidates appends, to buf[:0], up to max distinct engine ids in ring
// order starting at the key's owner — the router's spillover order: the
// owner first, then the engines that would inherit the key if the owner
// were removed. buf is reused to keep the per-request path allocation-free
// once warm.
func (r *Ring) Candidates(key string, max int, buf []int) []int {
	return r.CandidatesHash(KeyHash(key), max, buf)
}

// CandidatesHash is Candidates over a pre-computed key hash.
func (r *Ring) CandidatesHash(h uint64, max int, buf []int) []int {
	buf = buf[:0]
	if max <= 0 {
		return buf
	}
	if max > len(r.ids) {
		max = len(r.ids)
	}
	start := r.succ(h)
	for i := 0; i < len(r.hashes) && len(buf) < max; i++ {
		id := int(r.owner[(start+i)%len(r.hashes)])
		dup := false
		for _, b := range buf {
			if b == id {
				dup = true
				break
			}
		}
		if !dup {
			buf = append(buf, id)
		}
	}
	return buf
}

// KeyHash hashes a routing key (FNV-1a 64, finalized with SplitMix64 for
// avalanche on short keys). Inlined rather than hash/fnv to stay
// allocation-free on the submit path.
func KeyHash(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return Mix64(h)
}

// vnodeHash positions replica v of engine id on the ring.
func vnodeHash(id, v int) uint64 {
	return Mix64(uint64(id)<<32 | uint64(uint32(v)) ^ 0x9e3779b97f4a7c15)
}

// Mix64 is the SplitMix64 finalizer as a pure hash: the one mixer behind ring
// positions, backoff jitter and the loadgen simulator's seeded draws.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
