package core

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
