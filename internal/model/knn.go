package model

import (
	"math"
	"math/bits"
	"sync"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// featKNN performs exact k-nearest-neighbor search in feature space (rows of
// feats), the SOTA searcher of DGCNN's deeper EdgeConv modules where
// "distance between points are measured using the features" (§5.2.3). The
// query set is all rows, and every row is its own candidate. O(N²·C). The
// result is lent from ws, like a matrix from wsGet.
//
// A candidate's distance is the float32 difference of each channel, widened,
// squared and summed in float64 in channel order. A list keeps the k smallest
// (distance, index) pairs: ties go to the lower index, whatever the order the
// candidates are offered in. Two searches fill the lists:
//
//   - The symmetric join, with AVX2 and every feature finite. Under
//     round-to-nearest fi−fj is exactly −(fj−fi), so d(i,j) and d(j,i) are
//     the same bits: each pair j > i is computed once and offered to both
//     lists. Row blocks of knnBlock points make tiles; the diagonal tiles run
//     first, so every list holds its Morton neighbours' distances before a
//     far tile is scanned, and a worker holds both row blocks of the tile it
//     runs, so a list has one writer at a time.
//   - The ascending scan otherwise: query by query, candidates in index
//     order, eight at a time (knnScan8) or by the Go loop that the tests
//     take as the oracle. A NaN distance "gets in" by arrival order, so a
//     level holding a NaN or an Inf (Inf − Inf is NaN) is searched this
//     way, with the early exit off.
//
// Each list's k-th entry only ever falls and is never below the true k-th
// smallest pair, so both stop summing a candidate once its partial sum is
// past it: exact when every feature is finite, as each term is then a
// non-negative number and a partial sum never exceeds the whole one. Both
// fan out by work (pairs times channels), not by point count.
//
//edgepc:hotpath
func featKNN(ws *tensor.Workspace, feats *tensor.Matrix, k int) []int {
	n, c := feats.Rows, feats.Cols
	k = min(k, n)
	om, dm := wsGet(ws, n*k, intWords), wsGet(ws, n*k, 2)
	s := knnJobs.Get().(*knnJob)
	s.feats, s.n, s.c, s.k = feats.Data, n, c, k
	s.out, s.d = om.Ints(), dm.Float64s()
	s.early = true
	for _, v := range feats.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			s.early = false
			break
		}
	}
	var ftm, thm *tensor.Matrix
	if knnAVX2 && c > 0 {
		// The candidates as lanes: a channel-major copy, its rows padded
		// with zeros to a whole number of 8-lane blocks.
		s.ld = (n + 7) &^ 7
		ftm = wsGet(ws, c, s.ld)
		s.ft = ftm.Data
		for i := 0; i < n; i++ {
			for t, v := range feats.Row(i) {
				s.ft[t*s.ld+i] = v
			}
		}
		for t := 0; t < c; t++ {
			clear(s.ft[t*s.ld+n : (t+1)*s.ld])
		}
	}
	if ftm != nil && s.early {
		thm = wsGet(ws, s.ld, 2)
		s.thr = thm.Float64s()
		s.join(parallel.WorkersFor(n*n/2*c, knnGrain))
	} else {
		parallel.Split(n, parallel.WorkersFor(n*n*c, knnGrain), s)
	}
	out := s.out
	s.feats, s.ft, s.thr, s.d, s.out = nil, nil, nil, nil, nil
	knnJobs.Put(s)
	wsPut(ws, thm)
	wsPut(ws, dm)
	wsPut(ws, ftm)
	return out
}

const (
	// knnBlock is the row block of the symmetric join: a tile pairs two.
	knnBlock = 64
	// knnGrain is the work, in channel terms of a pair, that pays for a
	// goroutine.
	knnGrain = 1 << 19
	// intWords is the float32 words of an int, for lending ints from a
	// workspace.
	intWords = bits.UintSize / 32
)

// knnJob is one featKNN call: the inputs, the n lists (d, out; list i is
// [i·k, (i+1)·k), ascending), and the join's tile schedule. It is kept in
// knnJobs with its schedule slices, so a call allocates nothing once warm.
type knnJob struct {
	feats   []float32 // n × c, row-major
	ft      []float32 // c × ld, channel-major: the lanes (AVX2 only)
	thr     []float64 // thr[i] = d[i·k+k−1], the bound list i prunes with; −Inf past n (join only)
	d       []float64
	out     []int
	n, c, k int
	ld      int
	early   bool // every feature finite: a partial sum may end a candidate
	mu      sync.Mutex
	tiles   [][2]int32 // row-block pairs (a, b), a ≤ b, diagonal first, then by b − a
	taken   []bool     // per tile
	busy    []bool     // per row block: held by a worker
	first   int        // every tile before it is taken
}

var knnJobs = sync.Pool{New: func() any { return new(knnJob) }}

// Chunk fills the lists of queries [lo, hi) by the ascending scan.
func (s *knnJob) Chunk(lo, hi int) { s.scan(lo, hi) }

// knnWorkers is a knnJob fanned out as the join's workers: every chunk is
// one worker.
type knnWorkers knnJob

func (w *knnWorkers) Chunk(_, _ int) { (*knnJob)(w).work() }

// scan fills the lists of queries [lo, hi), candidates in ascending order.
//
//edgepc:hotpath
func (s *knnJob) scan(lo, hi int) {
	n, c, k := s.n, s.c, s.k
	vn := 0
	if s.ft != nil {
		vn = n &^ 7
	}
	var lanes [8]float64
	for i := lo; i < hi; i++ {
		fi := s.feats[i*c : i*c+c]
		d, idx := s.d[i*k:i*k+k], s.out[i*k:i*k+k]
		for t := range d {
			d[t] = 1e300
			idx[t] = -1
		}
		j := 0
		for j < vn {
			off := knnScanAVX2(&lanes, fi, s.ft[j:], vn-j, s.ld, d[k-1], s.early)
			if j += off; j == vn {
				break
			}
			for l, dist := range lanes {
				knnInsert(d, idx, j+l, dist)
			}
			j += 8
		}
		for ; j < n; j++ {
			fj := s.feats[j*c : j*c+c]
			thr := d[k-1]
			var dist float64
			for t, v := range fi {
				dv := float64(v - fj[t])
				dist += float64(dv * dv)
				if s.early && dist >= thr {
					break
				}
			}
			knnInsert(d, idx, j, dist)
		}
	}
}

// join fills the lists by the symmetric tiled join on up to workers
// goroutines, one fan-out for the whole call.
func (s *knnJob) join(workers int) {
	n, k := s.n, s.k
	for i := 0; i < n; i++ {
		d, idx := s.d[i*k:i*k+k], s.out[i*k:i*k+k]
		for t := range d {
			d[t] = 1e300
			idx[t] = -1
		}
		// Self: every term of its distance is +0 on finite features.
		d[0], idx[0] = 0, i
		s.thr[i] = d[k-1]
	}
	for i := n; i < s.ld; i++ {
		s.thr[i] = math.Inf(-1)
	}
	nb := (n + knnBlock - 1) / knnBlock
	s.plan(nb)
	// Two workers hold four row blocks: fewer blocks than that per worker
	// leaves the others waiting.
	workers = max(1, min(workers, nb/2))
	parallel.Split(workers, workers, (*knnWorkers)(s))
}

// plan lists the tiles of nb row blocks, the diagonal first and then by the
// distance of the two blocks along the Morton order, and marks them all
// free.
func (s *knnJob) plan(nb int) {
	if len(s.busy) != nb {
		s.tiles = s.tiles[:0]
		for gap := 0; gap < nb; gap++ {
			for a := 0; a+gap < nb; a++ {
				s.tiles = append(s.tiles, [2]int32{int32(a), int32(a + gap)})
			}
		}
		s.taken = make([]bool, len(s.tiles))
		s.busy = make([]bool, nb)
	}
	clear(s.taken)
	clear(s.busy)
	s.first = 0
}

// work runs tiles until none is left that it may take. A worker that finds
// every remaining tile blocked by a row block another worker holds returns:
// that worker takes them once it lets its blocks go.
func (s *knnJob) work() {
	s.mu.Lock()
	for {
		t := s.claim()
		if t < 0 {
			break
		}
		s.mu.Unlock()
		a, b := int(s.tiles[t][0]), int(s.tiles[t][1])
		s.tile(a, b)
		s.mu.Lock()
		s.busy[a], s.busy[b] = false, false
	}
	s.mu.Unlock()
}

// claim takes the first tile in plan order that is not taken and whose row
// blocks nobody holds, and holds them; −1 when there is none. s.mu is held.
func (s *knnJob) claim() int {
	for s.first < len(s.tiles) && s.taken[s.first] {
		s.first++
	}
	for t := s.first; t < len(s.tiles); t++ {
		a, b := s.tiles[t][0], s.tiles[t][1]
		if s.taken[t] || s.busy[a] || s.busy[b] {
			continue
		}
		s.taken[t], s.busy[a], s.busy[b] = true, true, true
		return t
	}
	return -1
}

// tile offers every pair (i, j), i in row block a and j > i in row block b,
// to list i and list j. A lane block's bound is, lane by lane, the larger of
// the two lists' k-th distances, so the kernel hands over only the lanes one
// of them may take, and each list is offered only those not past its own.
//
//edgepc:hotpath
func (s *knnJob) tile(a, b int) {
	c := s.c
	end := min((b+1)*knnBlock, s.ld)
	var lanes [8]float64
	for i := a * knnBlock; i < min((a+1)*knnBlock, s.n); i++ {
		q := s.feats[i*c : i*c+c]
		j := b * knnBlock
		if a == b {
			// Whole lane blocks ending at end; the lanes up to i are
			// masked below.
			j = end - ((end - i - 1 + 7) &^ 7)
		}
		for j < end {
			off, mask := knnSymAVX2(&lanes, q, s.ft[j:], s.thr[j:end], s.ld, s.thr[i])
			if off == end-j {
				break
			}
			j += off
			// Candidates are the lanes past i and before the padding.
			mask &= (1<<min(8, max(0, s.n-j)) - 1) &^ (1<<max(0, i+1-j) - 1)
			for ; mask != 0; mask &= mask - 1 {
				l := bits.TrailingZeros(uint(mask))
				dist := lanes[l]
				if dist <= s.thr[i] {
					s.offer(i, j+l, dist)
				}
				if dist <= s.thr[j+l] {
					s.offer(j+l, i, dist)
				}
			}
			j += 8
		}
	}
}

// offer inserts candidate j at distance dist into list i and updates its
// bound.
func (s *knnJob) offer(i, j int, dist float64) {
	lo, hi := i*s.k, (i+1)*s.k
	knnInsert(s.d[lo:hi], s.out[lo:hi], j, dist)
	s.thr[i] = s.d[hi-1]
}

// knnInsert places candidate j at distance dist into the ascending top-k
// lists d, idx unless (dist, j) comes after the k-th (distance, index) pair.
// Offered in ascending j, that is "unless dist ≥ the k-th best", an equal
// distance going after the ones already there, and a NaN on either side
// compares as neither smaller nor larger, so that a NaN "gets in" by arrival
// order: the ascending scan's rule.
//
//edgepc:hotpath
func knnInsert(d []float64, idx []int, j int, dist float64) {
	k := len(d)
	//edgepc:lint-ignore floateq an exact tie of distances is broken by index
	if dist > d[k-1] || dist == d[k-1] && j > idx[k-1] {
		return
	}
	t := k - 1
	//edgepc:lint-ignore floateq an exact tie of distances is broken by index
	for t > 0 && (d[t-1] > dist || d[t-1] == dist && idx[t-1] > j) {
		d[t] = d[t-1]
		idx[t] = idx[t-1]
		t--
	}
	d[t] = dist
	idx[t] = j
}

// knnAVX2 is the answer of tensor's one CPUID probe: whether featKNN scans
// candidates eight lanes at a time or with the Go loop alone.
var knnAVX2 = tensor.HasAVX2()
