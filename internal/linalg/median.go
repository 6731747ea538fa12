package linalg

import (
	"fmt"
	"math"
	"sync"
	"unsafe"
)

// Tiled coordinate median. The coordinate-wise median of the f vote
// winners is the parameter server's largest per-round kernel, and a
// per-column quickselect mispredicts about one branch per comparison on
// gradient data. MedianCols instead sorts medianTile columns at a time
// through a fixed compare-exchange network: every comparison is an
// integer min/max (CMOV on amd64), so the cost per column is a fixed,
// branch-free instruction count.
//
// Values enter the network as order-preserving int64 keys rather than
// floats: Go lowers a float min/max to a NaN- and signed-zero-aware
// sequence of about eight instructions, an integer one to CMP+CMOV. The
// key map collapses −0 onto +0 and every NaN onto one sentinel below
// −Inf, so NaNs order first exactly as in floatLess, and a column's
// median depends only on its multiset of values.
//
// Measured with BenchmarkMedianCols (Xeon, Sapphire Rapids, 2 shared
// vCPUs; 8,192 columns, f64, dense normal data; median of 5), in ns per
// coordinate: n = 15: 101 against quickselect's 368; n = 25: 176
// against 658. On zero-row-majority data: 12 and 22 against 137 and 200.

const (
	// medianTile is the number of columns one network pass sorts. Each
	// compare-exchange then runs a branch-free loop over 32 key lanes of
	// two rows, and a tile of keys (6.4 KiB at n = 25) stays in L1.
	medianTile = 32
	// medianNetCap is the largest column height sorted by the network;
	// taller columns fall back to per-column quickselect. Measured with
	// BenchmarkMedianColsCap (same machine): the network is 2× faster
	// than quickselect at n = 64, 1.3× at 256 and 1.15× at 512 and 768,
	// and ties it at n = 1024 as its O(n log² n) comparators overtake
	// quickselect's expected O(n); the cap keeps a margin below the tie.
	medianNetCap = 512
)

// MedianScratch is the reusable working memory of MedianCols. The zero
// value is ready to use; a scratch must not be shared by concurrent
// calls.
type MedianScratch[T Float] struct {
	keys []int64 // n × medianTile keys, row-major
	col  []T     // one column, for heights above the network cap
}

// MedianCols writes the median of every column j in [lo, hi) of rows —
// the median of rows[0][j], …, rows[n-1][j] — into out[j], leaving the
// rest of out untouched. Every row must hold at least hi values. s may
// be nil, in which case the call allocates its own scratch.
//
// Contract: each output depends only on the column's multiset of
// values, never on row order. Whenever the median is a non-zero number
// it is bit-identical to MedianSelect on the same column (the middle
// order statistic, or (lower+upper)/2 for even n); a zero median is
// returned as +0 and a NaN median as a NaN. MedianSelect leaves the
// sign of a zero and the payload of a NaN to element positions; this
// kernel fixes both, so shuffled rows give identical bits.
//
// A tile in which more than half the rows are all zero is written as +0
// without sorting: saturated softmax and dead-ReLU gradients give such
// tiles. Zeros scattered over rows go through the network, which maps
// ±0 to one key and so returns +0 as well.
func MedianCols[T Float](rows [][]T, out []T, lo, hi int, s *MedianScratch[T]) {
	n := len(rows)
	if n == 0 {
		panic("linalg: median of zero rows")
	}
	if lo < 0 || lo > hi || hi > len(out) {
		panic(fmt.Sprintf("linalg: median columns [%d,%d) outside [0,%d)", lo, hi, len(out)))
	}
	if s == nil {
		s = new(MedianScratch[T])
	}
	if n > medianNetCap {
		medianColsSelect(rows, out, lo, hi, s)
		return
	}
	medianColsNetwork(rows, out, lo, hi, s, medianNetwork(n))
}

// medianColsNetwork is MedianCols through the compare-exchange network
// ops, which must be buildMedianNetwork(len(rows)).
func medianColsNetwork[T Float](rows [][]T, out []T, lo, hi int, s *MedianScratch[T], ops []medianOp) {
	n := len(rows)
	if cap(s.keys) < n*medianTile {
		s.keys = make([]int64, n*medianTile)
	}
	keys := s.keys[:n*medianTile]
	for c0 := lo; c0 < hi; c0 += medianTile {
		w := min(medianTile, hi-c0)
		dst := out[c0 : c0+w]
		if zeroRowMajority(rows, c0, w) {
			clear(dst)
			continue
		}
		for r, row := range rows {
			keyRow(keys[r*medianTile:], row[c0:c0+w])
		}
		runNetwork(ops, keys)
		upper := keys[(n/2)*medianTile:][:w]
		if n%2 == 1 {
			for c, k := range upper {
				dst[c] = keyFloat[T](k)
			}
			continue
		}
		lower := keys[(n/2-1)*medianTile:][:w]
		for c, k := range upper {
			// Adding +0 turns the −0 an underflowing half-sum can round
			// to into +0 and leaves every other value unchanged.
			dst[c] = (keyFloat[T](lower[c])+keyFloat[T](k))/2 + 0
		}
	}
}

// zeroRowMajority reports whether more than half of rows are all zero
// over [c0, c0+w), which makes every median of the tile zero. It stops
// at the first non-zero value of each row and as soon as the answer is
// known, so dense tiles pay a few loads.
func zeroRowMajority[T Float](rows [][]T, c0, w int) bool {
	need := len(rows)/2 + 1
	for r, row := range rows {
		if len(rows)-r < need {
			return false
		}
		zero := true
		for _, v := range row[c0 : c0+w] {
			if v != 0 {
				zero = false
				break
			}
		}
		if zero {
			if need--; need == 0 {
				return true
			}
		}
	}
	return false
}

// medianColsSelect is MedianCols above the network cap: a per-column
// quickselect whose zero and NaN results are canonicalized to the
// network's, so the contract holds at every height.
func medianColsSelect[T Float](rows [][]T, out []T, lo, hi int, s *MedianScratch[T]) {
	if cap(s.col) < len(rows) {
		s.col = make([]T, len(rows))
	}
	col := s.col[:len(rows)]
	nan := keyFloat[T](nanKey[T]())
	for j := lo; j < hi; j++ {
		for i, row := range rows {
			col[i] = row[j]
		}
		m := MedianSelect(col)
		switch {
		case m == 0:
			m = 0
		case m != m:
			m = nan
		}
		out[j] = m
	}
}

// keyRow writes the keys of src to dst[:len(src)] and zeroes the rest
// of dst's medianTile keys (a partial tile's padding).
func keyRow[T Float](dst []int64, src []T) {
	d := (*[medianTile]int64)(dst)
	clear(d[len(src):])
	var z T
	if unsafe.Sizeof(z) == 4 {
		for c, v := range src {
			d[c] = key32(math.Float32bits(float32(v)))
		}
		return
	}
	for c, v := range src {
		d[c] = key64(math.Float64bits(float64(v)))
	}
}

// key64 maps float64 bits b to an int64 whose signed order is
// floatLess's order on the values: the magnitude bits are flipped for
// negatives (so integer order follows numeric order), negatives move up
// by one so −0 lands on +0's key 0, and every NaN goes to
// math.MinInt64, below the key of −Inf.
func key64(b uint64) int64 {
	k := int64(b)
	k ^= int64(uint64(k>>63) >> 1)
	k -= k >> 63
	if b&(1<<63-1) > 0x7ff0000000000000 {
		k = math.MinInt64
	}
	return k
}

// nanKey returns the key every NaN of width T maps to.
func nanKey[T Float]() int64 {
	if Width[T]() == 4 {
		return math.MinInt32
	}
	return math.MinInt64
}

// key32 is key64 for float32 bits, with the NaN sentinel at
// math.MinInt32.
func key32(b uint32) int64 {
	k := int32(b)
	k ^= int32(uint32(k>>31) >> 1)
	k -= k >> 31
	if b&(1<<31-1) > 0x7f800000 {
		k = math.MinInt32
	}
	return int64(k)
}

// keyFloat inverts key64 and key32. Key 0 decodes to +0, and the NaN
// sentinel decodes (through the wrap of its shift back down) to the
// quiet NaN with every payload bit set.
func keyFloat[T Float](k int64) T {
	var z T
	if unsafe.Sizeof(z) == 4 {
		k32 := int32(k)
		k32 += k32 >> 31
		k32 ^= int32(uint32(k32>>31) >> 1)
		return T(math.Float32frombits(uint32(k32)))
	}
	k += k >> 63
	k ^= int64(uint64(k>>63) >> 1)
	return T(math.Float64frombits(uint64(k)))
}

// Compare-exchange kinds: after backward pruning a comparator may only
// need its min output (the max side is never read again), only its max
// output, or both.
const (
	opExchange uint8 = iota
	opMin
	opMax
)

// medianOp is one compare-exchange of the network: rows a < b, given as
// key offsets (row × medianTile); the min lands in row a, the max in b.
type medianOp struct {
	a, b int32
	kind uint8
}

// runNetwork applies ops to the keys of one tile.
func runNetwork(ops []medianOp, keys []int64) {
	for _, op := range ops {
		a, b := quads(keys[op.a:]), quads(keys[op.b:])
		switch op.kind {
		case opExchange:
			exchange(a, b)
		case opMin:
			minInto(a, b)
		case opMax:
			maxInto(b, a)
		}
	}
}

// exchange stores the lane-wise min of a and b in a and the max in b.
// The lanes are unrolled four wide; as its own function the loop keeps
// all eight values in registers.
func exchange(a, b *[medianTile / 4][4]int64) {
	for i := range a {
		p, q := &a[i], &b[i]
		x0, y0 := p[0], q[0]
		x1, y1 := p[1], q[1]
		x2, y2 := p[2], q[2]
		x3, y3 := p[3], q[3]
		p[0], q[0] = min(x0, y0), max(x0, y0)
		p[1], q[1] = min(x1, y1), max(x1, y1)
		p[2], q[2] = min(x2, y2), max(x2, y2)
		p[3], q[3] = min(x3, y3), max(x3, y3)
	}
}

// minInto stores the lane-wise min of dst and src in dst.
func minInto(dst, src *[medianTile / 4][4]int64) {
	for i := range dst {
		p, q := &dst[i], &src[i]
		p[0] = min(p[0], q[0])
		p[1] = min(p[1], q[1])
		p[2] = min(p[2], q[2])
		p[3] = min(p[3], q[3])
	}
}

// maxInto stores the lane-wise max of dst and src in dst.
func maxInto(dst, src *[medianTile / 4][4]int64) {
	for i := range dst {
		p, q := &dst[i], &src[i]
		p[0] = max(p[0], q[0])
		p[1] = max(p[1], q[1])
		p[2] = max(p[2], q[2])
		p[3] = max(p[3], q[3])
	}
}

// quads views the first medianTile keys of k as medianTile/4 quads.
func quads(k []int64) *[medianTile / 4][4]int64 {
	return (*[medianTile / 4][4]int64)(unsafe.Pointer((*[medianTile]int64)(k)))
}

// medianNetCache holds each height's pruned network, built on first
// use; sync.Once makes concurrent first requests build it exactly once.
type medianNetCache [medianNetCap + 1]struct {
	once sync.Once
	ops  []medianOp
}

// get returns the cached median network for n rows.
func (c *medianNetCache) get(n int) []medianOp {
	e := &c[n]
	e.once.Do(func() { e.ops = buildMedianNetwork(n) })
	return e.ops
}

// medianNetworks is the process-wide network cache.
var medianNetworks medianNetCache

// medianNetwork returns the cached median network for n rows.
func medianNetwork(n int) []medianOp { return medianNetworks.get(n) }

// buildMedianNetwork returns Batcher's odd-even merge sort on n inputs
// (generated for the next power of two; comparators reaching past n-1
// are dropped, as if the missing inputs were +Inf) pruned backwards to
// the comparators that reach the median position(s): n/2, and n/2-1
// for even n.
func buildMedianNetwork(n int) []medianOp {
	type pair struct{ a, b int }
	var pairs []pair
	p2 := 1
	for p2 < n {
		p2 <<= 1
	}
	for p := 1; p < p2; p <<= 1 {
		for k := p; k >= 1; k >>= 1 {
			for j := k % p; j+k < p2; j += 2 * k {
				for i := 0; i < k && i+j+k < p2; i++ {
					if (i+j)/(2*p) == (i+j+k)/(2*p) && i+j+k < n {
						pairs = append(pairs, pair{i + j, i + j + k})
					}
				}
			}
		}
	}
	need := make([]bool, n)
	need[n/2] = true
	if n%2 == 0 {
		need[n/2-1] = true
	}
	var rev []medianOp
	for i := len(pairs) - 1; i >= 0; i-- {
		pr := pairs[i]
		kind := opExchange
		switch {
		case need[pr.a] && need[pr.b]:
		case need[pr.a]:
			kind = opMin
		case need[pr.b]:
			kind = opMax
		default:
			continue
		}
		need[pr.a], need[pr.b] = true, true
		rev = append(rev, medianOp{a: int32(pr.a * medianTile), b: int32(pr.b * medianTile), kind: kind})
	}
	ops := make([]medianOp, len(rev))
	for i, op := range rev {
		ops[len(rev)-1-i] = op
	}
	return ops
}
