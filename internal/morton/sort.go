package morton

import "sort"

// Sorting Morton codes is Algorithm 1, line 10: it produces the new index
// array I' = [i_0, ..., i_{N-1}] such that codes[I'[0]] ≤ codes[I'[1]] ≤ ….
// Two implementations are provided — an LSD radix sort (the default: O(N)
// passes over fixed-width integer keys, the natural choice for 32/63-bit
// codes) and a comparison sort (the reference, and the subject of the
// sort-algorithm ablation bench).

// Order returns the stable sorted order of codes: a permutation perm such
// that codes[perm[j]] is non-decreasing in j, with ties broken by original
// index. It is the package's default (radix) implementation.
func Order(codes []uint64) []int {
	return RadixOrder(codes)
}

// RadixOrder is OrderInto into fresh buffers, widened to int.
func RadixOrder(codes []uint64) []int {
	order := OrderInto(nil, nil, codes)
	perm := make([]int, len(order))
	for j, i := range order {
		perm[j] = int(i)
	}
	return perm
}

// digitBits is the radix sort's digit: the paper's a = 32 makes 30-bit
// codes (10 bits an axis), which three passes sort (four at 8 bits), and a
// 1024-entry histogram stays in L1. On a W1 frame's codes 11-bit digits,
// also three passes, took 10–20 % longer.
const (
	digitBits = 10
	digitMask = 1<<digitBits - 1
)

// OrderInto writes the stable sorted order of codes (Order's permutation,
// as int32) into dst, reused like append, with an LSD radix sort over
// 10-bit digits. Digits that are equal in every code are skipped, so a
// 30-bit code pays at most three passes. scratch is the sort's second
// buffer when it holds len(codes) elements, and is allocated otherwise; a
// caller that keeps both allocates nothing. Each pass counts its digit over
// codes in their original order and scatters the previous pass's order, so
// ties keep their order and the sort is stable.
//
//edgepc:hotpath
func OrderInto(dst, scratch []int32, codes []uint64) []int32 {
	n := len(codes)
	if cap(dst) < n {
		//edgepc:lint-ignore hotpathalloc cap-guarded grow; a caller that keeps dst passes it back
		dst = make([]int32, n)
	}
	dst = dst[:n]
	orAll, andAll := uint64(0), ^uint64(0)
	for _, c := range codes {
		orAll |= c
		andAll &= c
	}
	varying := orAll ^ andAll
	passes := 0
	for shift := 0; shift < 64; shift += digitBits {
		if (varying>>shift)&digitMask != 0 {
			passes++
		}
	}
	if passes == 0 {
		for i := range dst {
			dst[i] = int32(i)
		}
		return dst
	}
	if len(scratch) < n && passes > 1 {
		//edgepc:lint-ignore hotpathalloc a caller that keeps its scratch passes one that fits
		scratch = make([]int32, n)
	}
	// The passes alternate between the two buffers; the first reads the
	// identity order from nowhere, and starts in whichever buffer makes the
	// last one write dst.
	out, other := dst, scratch
	if passes%2 == 0 {
		out, other = scratch, dst
	}
	var count [1 << digitBits]int32
	var prev []int32
	for shift := 0; shift < 64; shift += digitBits {
		if (varying>>shift)&digitMask == 0 {
			continue
		}
		clear(count[:])
		for _, c := range codes {
			count[(c>>shift)&digitMask]++
		}
		sum := int32(0)
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		out = out[:n]
		if prev == nil {
			for i, c := range codes {
				d := (c >> shift) & digitMask
				out[count[d]] = int32(i)
				count[d]++
			}
		} else {
			for _, p := range prev {
				d := (codes[p] >> shift) & digitMask
				out[count[d]] = p
				count[d]++
			}
		}
		prev, out, other = out, other, out
	}
	return dst
}

// StdOrder computes the sorted order with the standard library's stable
// comparison sort. Used as the reference implementation in tests and as the
// comparison point in the sort ablation bench.
func StdOrder(codes []uint64) []int {
	perm := make([]int, len(codes))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return codes[perm[a]] < codes[perm[b]] })
	return perm
}

// SortedCodes applies perm to codes, returning the code sequence in sorted
// order.
func SortedCodes(codes []uint64, perm []int) []uint64 {
	out := make([]uint64, len(perm))
	for j, i := range perm {
		out[j] = codes[i]
	}
	return out
}

// IsSorted reports whether codes[perm[j]] is non-decreasing.
func IsSorted(codes []uint64, perm []int) bool {
	for j := 1; j < len(perm); j++ {
		if codes[perm[j-1]] > codes[perm[j]] {
			return false
		}
	}
	return true
}
