package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: with
// fewer the number is one or two outliers, not a tail.
const minBeyond = 10

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics; 0 for no samples. It leaves xs in
// its order.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// percentile is quantile for a number that is reported as a percentile of
// single operations: it refuses one that has fewer than minBeyond samples
// beyond it on its short side.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("bench: percentile %g outside (0,1)", q)
	}
	// 1e-9 keeps 100 × (1 − 0.9) from counting as 9.
	tail := min(q, 1-q)
	if beyond := int(math.Floor(float64(len(xs))*tail + 1e-9)); beyond < minBeyond {
		return 0, fmt.Errorf("bench: p%g of %d samples has %d beyond it, need %d", q*100, len(xs), beyond, minBeyond)
	}
	return quantile(xs, q), nil
}

// median accepts any sample count: layer probes report the median of a
// handful of calls.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeCalls runs f at least minCalls times and until budget is spent, and
// returns the median duration of one call.
func timeCalls(minCalls int, budget time.Duration, f func() error) (time.Duration, error) {
	var durs []float64
	start := time.Now()
	for len(durs) < minCalls || time.Since(start) < budget {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		durs = append(durs, float64(time.Since(t0)))
	}
	return time.Duration(median(durs)), nil
}

// quietQuartile is the share of a closed-loop run's cycles that must have
// run undisturbed for its timings to hold (see cycleStats), and minCycles
// the fewest cycles a measured run takes them from.
const (
	quietQuartile = 0.25
	minCycles     = 8
)

// cycleStats turns the per-operation latencies of a closed-loop run, in the
// order they were taken, into its three timings. The operations are cut into
// cycles of the same inputs (one pass over the pool, one epoch); each cycle
// gives a rate, a median and a 90th percentile; the run reports the quartile
// of cycles on the fast side. The machines this runs on are shared, and what
// a neighbour does can only add time, for seconds or minutes on end: the
// fast quartile of a run's cycles is what the program does when left alone,
// and it repeats from run to run where the run's overall median does not.
// An incomplete last cycle is left out.
func cycleStats(latMS []float64, cycle int) (fps, p50, p90 float64, err error) {
	var rates, medians, tails []float64
	for lo := 0; lo+cycle <= len(latMS); lo += cycle {
		ops := latMS[lo : lo+cycle]
		var total float64
		for _, l := range ops {
			total += l
		}
		rates = append(rates, float64(cycle)/(total/1e3))
		medians = append(medians, quantile(ops, 0.5))
		tails = append(tails, quantile(ops, 0.9))
	}
	if len(rates) < 4 {
		return 0, 0, 0, fmt.Errorf("bench: %d complete cycles of %d operations, need 4 for a quartile", len(rates), cycle)
	}
	return quantile(rates, 1-quietQuartile), quantile(medians, quietQuartile), quantile(tails, quietQuartile), nil
}
