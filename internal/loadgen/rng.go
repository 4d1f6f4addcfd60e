package loadgen

import (
	"math"
	"sort"

	"repro/internal/serve"
)

// Seeded PRNG and the two samplers the harness draws from: Pareto
// inter-arrival times (heavy-tailed bursts — an open-loop stream of
// independent clients is bursty, not Poisson-smooth) and Zipf tenant skew
// (a few hot tenants dominate, a long tail trickles). Hand-rolled SplitMix64
// rather than math/rand so the byte-for-byte sequence is pinned by this
// repo, not by a Go release.

// RNG is a SplitMix64 pseudo-random generator. Deterministic in its seed;
// not safe for concurrent use (the simulator is single-threaded by design).
type RNG struct{ state uint64 }

// NewRNG seeds a generator.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits: the SplitMix64 finalizer over a
// Weyl sequence (serve.Mix64 adds the same increment before mixing).
func (r *RNG) Uint64() uint64 {
	x := serve.Mix64(r.state)
	r.state += 0x9e3779b97f4a7c15
	return x
}

// Float64 returns a uniform draw in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// IntN returns a uniform draw in [0, n).
func (r *RNG) IntN(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// Pareto draws from a Pareto(alpha, xm) distribution by inversion:
// xm * u^(-1/alpha). Heavy-tailed for small alpha; mean alpha*xm/(alpha-1)
// for alpha > 1.
func (r *RNG) Pareto(alpha, xm float64) float64 {
	u := 1 - r.Float64() // in (0, 1]: avoids the infinite draw at u = 0
	return xm * math.Pow(u, -1/alpha)
}

// ParetoXm returns the scale parameter that gives a Pareto(alpha) draw the
// mean inter-arrival time 1/rate.
func ParetoXm(alpha, rate float64) float64 {
	return (alpha - 1) / (alpha * rate)
}

// Zipf samples ranks 0..n-1 with probability proportional to 1/(rank+1)^s,
// via a precomputed cumulative table and binary search — deterministic and
// O(log n) per draw, fine up to the spec's 2M-tenant cap.
type Zipf struct {
	cum []float64
}

// NewZipf builds the sampler. s = 0 degenerates to uniform.
func NewZipf(n int, s float64) *Zipf {
	cum := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &Zipf{cum: cum}
}

// Pick maps a uniform draw u in [0,1) to a rank.
func (z *Zipf) Pick(u float64) int {
	i := sort.SearchFloat64s(z.cum, u)
	if i >= len(z.cum) {
		i = len(z.cum) - 1
	}
	return i
}
