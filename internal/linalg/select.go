package linalg

import (
	"fmt"
	"slices"
)

// Quickselect order statistics. The chunked coordinate-wise aggregation
// rules ask for one or two order statistics per coordinate column; a
// full per-coordinate sort is O(n log n) where selection is expected
// O(n), and the column scratch is reused, so selection allocates
// nothing. Ordering semantics match sort.Float64s exactly — NaNs order
// before every number — so the selected values are identical to the
// values a full sort would place at the same indices. Within an
// equivalence class (equal values, all NaNs, ±0) the element chosen is
// unspecified, exactly as an unstable sort leaves it.

// floatLess orders a before b with sort.Float64s semantics: ascending,
// NaNs first.
func floatLess[T Float](a, b T) bool {
	return a < b || (a != a && b == b)
}

// selectCutoff is the sub-slice size below which SelectKth finishes
// with insertion sort instead of partitioning further.
const selectCutoff = 12

// SelectKth partially reorders xs in place so that xs[k] holds the
// value an ascending sort would place at index k, every element of
// xs[:k] orders no later than xs[k], and every element of xs[k+1:]
// orders no earlier. Expected linear time, zero allocations.
func SelectKth[T Float](xs []T, k int) T {
	if k < 0 || k >= len(xs) {
		panic(fmt.Sprintf("linalg: select index %d of %d values", k, len(xs)))
	}
	lo, hi := 0, len(xs)
	for hi-lo > selectCutoff {
		// Median-of-three pivot: order xs[lo], xs[mid], xs[hi-1] and
		// partition around the middle one.
		mid := lo + (hi-lo)/2
		if floatLess(xs[mid], xs[lo]) {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if floatLess(xs[hi-1], xs[lo]) {
			xs[hi-1], xs[lo] = xs[lo], xs[hi-1]
		}
		if floatLess(xs[hi-1], xs[mid]) {
			xs[hi-1], xs[mid] = xs[mid], xs[hi-1]
		}
		p := xs[mid]
		// Dutch-flag partition: [lo,i) < p, [i,j) ≡ p, (scanning j),
		// [n,hi) > p. The equal run makes duplicate-heavy columns (sign
		// gradients, zero-heavy sparse rows) terminate in one pass.
		i, j, n := lo, lo, hi
		for j < n {
			switch {
			case floatLess(xs[j], p):
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j++
			case floatLess(p, xs[j]):
				n--
				xs[j], xs[n] = xs[n], xs[j]
			default:
				j++
			}
		}
		switch {
		case k < i:
			hi = i
		case k >= n:
			lo = n
		default:
			// k lands inside the equal run — xs[k] is equivalent to p
			// and the partition property already holds.
			return xs[k]
		}
	}
	insertionSort(xs[lo:hi])
	return xs[k]
}

// insertionSort sorts xs ascending with floatLess ordering.
func insertionSort[T Float](xs []T) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && floatLess(xs[j], xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// SortAscending sorts xs in place with the same value ordering as
// sort.Float64s (ascending, NaNs first), for either float width.
func SortAscending[T Float](xs []T) {
	slices.SortFunc(xs, func(a, b T) int {
		switch {
		case floatLess(a, b):
			return -1
		case floatLess(b, a):
			return 1
		default:
			return 0
		}
	})
}

// MedianSelect returns the median of xs, partially reordering it. The
// result is the value linalg.MedianOf computes on a copy: the middle
// order statistic, or the average of the two middle ones for even
// counts.
//
// Contract: the value is exact, but when the median is a zero or a NaN
// its sign or payload is unspecified — which of the equal-ordering
// elements lands in the middle depends on their positions in xs. The
// coordinate-median kernel MedianCols fixes both (+0, one NaN) and
// agrees with MedianSelect bit for bit on every other median.
func MedianSelect[T Float](xs []T) T {
	n := len(xs)
	if n == 0 {
		panic("linalg: median of empty slice")
	}
	upper := SelectKth(xs, n/2)
	if n%2 == 1 {
		return upper
	}
	// The lower middle statistic is the maximum of the left partition.
	lower := xs[0]
	for _, v := range xs[1 : n/2] {
		if floatLess(lower, v) {
			lower = v
		}
	}
	return (lower + upper) / 2
}

// TrimmedMeanSelect returns the mean of xs after removing the trim
// smallest and trim largest values, reordering xs. Selection moves the
// two tails out of the middle region and only the surviving middle is
// sorted, so the summation visits the identical ascending value
// sequence as a full sort — the trimmed mean stays bit-identical to
// the sort-based kernel while the tails never pay sorting cost.
func TrimmedMeanSelect[T Float](xs []T, trim int) T {
	n := len(xs)
	if trim < 0 || 2*trim >= n {
		panic(fmt.Sprintf("linalg: trimmed mean with trim=%d of %d values", trim, n))
	}
	mid := xs
	if trim > 0 {
		SelectKth(xs, trim)
		SelectKth(xs[trim:], n-2*trim-1)
		mid = xs[trim : n-trim]
	}
	SortAscending(mid)
	var s T
	for _, v := range mid {
		s += v
	}
	return s / T(n-2*trim)
}
