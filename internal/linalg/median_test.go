package linalg

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// medianContract checks one MedianCols output against MedianSelect on
// the same column: a NaN median must come out as a NaN, a zero median
// as +0, and every other median bit for bit.
func medianContract[T Float](got, want T) bool {
	switch {
	case want != want:
		return got != got
	case want == 0:
		return Bits(got) == 0
	default:
		return Bits(got) == Bits(want)
	}
}

// saltedRows returns n rows of d values drawn to stress the kernel's
// contract: normal values on a coarse grid (duplicates), ±0, NaNs of
// both signs and several payloads, ±Inf, subnormals, a few all-zero
// rows, and some columns where more than half the values are zero or
// NaN.
func saltedRows[T Float](rng *rand.Rand, n, d int) [][]T {
	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0xfff8000000000001), math.Float64frombits(0x7ff0000000000009),
		5e-324, -5e-324,
	}
	zeroCol := make([]bool, d)
	nanCol := make([]bool, d)
	for j := range zeroCol {
		zeroCol[j] = rng.Intn(5) == 0
		nanCol[j] = !zeroCol[j] && rng.Intn(8) == 0
	}
	rows := make([][]T, n)
	for i := range rows {
		rows[i] = make([]T, d)
		if rng.Intn(6) == 0 {
			for j := range rows[i] {
				if rng.Intn(2) == 0 {
					rows[i][j] = T(math.Copysign(0, -1))
				}
			}
			continue
		}
		for j := range rows[i] {
			var v float64
			switch r := rng.Intn(20); {
			case zeroCol[j] && rng.Intn(3) != 0:
				v = specials[rng.Intn(2)]
			case nanCol[j] && rng.Intn(3) != 0:
				v = specials[4+rng.Intn(3)]
			case r == 0:
				v = specials[rng.Intn(len(specials))]
			case r < 8:
				v = float64(rng.Intn(5) - 2)
			default:
				v = rng.NormFloat64()
			}
			rows[i][j] = T(v)
		}
	}
	return rows
}

// checkMedianCols runs MedianCols over [lo, hi) of rows and checks every
// output against MedianSelect, and that out is untouched outside the
// range.
func checkMedianCols[T Float](t *testing.T, rows [][]T, lo, hi int) {
	t.Helper()
	d := len(rows[0])
	out := make([]T, d)
	const mark = 12345
	for j := range out {
		out[j] = mark
	}
	MedianCols(rows, out, lo, hi, nil)
	col := make([]T, len(rows))
	for j := range out {
		if j < lo || j >= hi {
			if out[j] != mark {
				t.Fatalf("n=%d [%d,%d): column %d outside the range was written", len(rows), lo, hi, j)
			}
			continue
		}
		for i, r := range rows {
			col[i] = r[j]
		}
		want := MedianSelect(col)
		if !medianContract(out[j], want) {
			for i, r := range rows {
				col[i] = r[j]
			}
			t.Fatalf("n=%d [%d,%d) column %d %v: MedianCols %v (%#x), MedianSelect %v (%#x)",
				len(rows), lo, hi, j, col, out[j], Bits(out[j]), want, Bits(want))
		}
	}
}

// TestMedianColsMatchesMedianSelect pins MedianCols to MedianSelect
// under its contract at both widths, for every height from 1 through
// one past the network cap (the last one runs the quickselect
// fallback), over ranges that start and end mid-tile.
func TestMedianColsMatchesMedianSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for n := 1; n <= medianNetCap+1; n++ {
		d := 3*medianTile + 7
		if n > 64 {
			d = medianTile + 9 // keep tall heights quick
		}
		lo := rng.Intn(medianTile / 2)
		hi := d - rng.Intn(medianTile/2)
		checkMedianCols(t, saltedRows[float64](rng, n, d), lo, hi)
		checkMedianCols(t, saltedRows[float32](rng, n, d), lo, hi)
	}
}

// TestMedianColsPermutationInvariant checks that shuffling the rows
// leaves every output bit unchanged, NaN payloads and zero signs
// included, on the network and on the quickselect fallback.
func TestMedianColsPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{2, 3, 14, 15, 24, 25, 64, medianNetCap + 1} {
		testPermutationInvariant[float64](t, rng, n)
		testPermutationInvariant[float32](t, rng, n)
	}
}

func testPermutationInvariant[T Float](t *testing.T, rng *rand.Rand, n int) {
	const d = 2*medianTile + 5
	rows := saltedRows[T](rng, n, d)
	// Column 0 is a NaN majority with a different payload in every row.
	for i := 0; i <= n/2; i++ {
		rows[i][0] = FromBits[T](Bits(T(math.NaN())) | uint64(i+1))
	}
	ref := make([]T, d)
	MedianCols(rows, ref, 0, d, nil)
	for trial := 0; trial < 4; trial++ {
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		got := make([]T, d)
		MedianCols(rows, got, 0, d, nil)
		for j := range got {
			if Bits(got[j]) != Bits(ref[j]) {
				t.Fatalf("n=%d width %d column %d: %#x after a shuffle, %#x before", n, Width[T](), j, Bits(got[j]), Bits(ref[j]))
			}
		}
	}
}

// TestMedianColsZeroMajority checks the zero shortcut's two detections
// — more than half the rows all zero, and zeros scattered so that each
// column has a zero majority — and that a zero median of −0 values is
// written as +0.
func TestMedianColsZeroMajority(t *testing.T) {
	negZero := math.Copysign(0, -1)
	const n, d = 7, medianTile + 3
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			switch {
			case i < 4: // four of seven rows are −0 everywhere
				rows[i][j] = negZero
			default:
				rows[i][j] = float64(i + j)
			}
		}
	}
	out := make([]float64, d)
	MedianCols(rows, out, 0, d, nil)
	for j, v := range out {
		if math.Float64bits(v) != 0 {
			t.Fatalf("zero rows: column %d median %v (%#x), want +0", j, v, math.Float64bits(v))
		}
	}
	// Scatter the same zeros: every column keeps four −0 of seven, but
	// no row is all zero.
	for i := range rows {
		for j := range rows[i] {
			if (i+j)%n < 4 {
				rows[i][j] = negZero
			} else {
				rows[i][j] = float64(1 + i + j)
			}
		}
	}
	MedianCols(rows, out, 0, d, nil)
	for j, v := range out {
		if math.Float64bits(v) != 0 {
			t.Fatalf("scattered zeros: column %d median %v (%#x), want +0", j, v, math.Float64bits(v))
		}
	}
}

// TestMedianNetworkZeroOne proves the pruned networks for every height
// up to 16 by the 0-1 principle: a comparator network that puts the
// right value at a position for every 0/1 input does so for every
// input. All 2^n 0/1 columns run through the network, 32 per tile.
func TestMedianNetworkZeroOne(t *testing.T) {
	for n := 1; n <= 16; n++ {
		ops := buildMedianNetwork(n)
		keys := make([]int64, n*medianTile)
		for base := 0; base < 1<<n; base += medianTile {
			for c := 0; c < medianTile; c++ {
				for r := 0; r < n; r++ {
					keys[r*medianTile+c] = int64((base + c) >> r & 1)
				}
			}
			runNetwork(ops, keys)
			for c := 0; c < medianTile && base+c < 1<<n; c++ {
				ones := 0
				for r := 0; r < n; r++ {
					ones += (base + c) >> r & 1
				}
				// Sorted ascending, position p holds a 1 iff p >= n-ones.
				for _, p := range []int{n / 2, (n - 1) / 2} {
					want := int64(0)
					if p >= n-ones {
						want = 1
					}
					if keys[p*medianTile+c] != want {
						t.Fatalf("n=%d input %b: position %d holds %d, want %d", n, base+c, p, keys[p*medianTile+c], want)
					}
				}
			}
		}
	}
}

// TestMedianNetworkConcurrentFirstUse builds networks under concurrent
// first use: many goroutines request the same and different heights at
// once from a fresh cache, and every caller of a height must get the
// same network and correct medians. Run under -race, it checks the
// cache's publication.
func TestMedianNetworkConcurrentFirstUse(t *testing.T) {
	heights := []int{3, 15, 25, 100, 15, 25, 3, medianNetCap}
	var cache medianNetCache
	const goroutines = 32
	nets := make([][]medianOp, goroutines)
	errs := make(chan string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := heights[g%len(heights)]
			rows := saltedRows[float64](rand.New(rand.NewSource(int64(g))), n, medianTile)
			out := make([]float64, medianTile)
			nets[g] = cache.get(n)
			medianColsNetwork(rows, out, 0, medianTile, new(MedianScratch[float64]), nets[g])
			col := make([]float64, n)
			for j, got := range out {
				for i, r := range rows {
					col[i] = r[j]
				}
				if want := MedianSelect(col); !medianContract(got, want) {
					errs <- "wrong median under concurrent first use"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	for g := range nets {
		first := nets[g%len(heights)]
		if &nets[g][0] != &first[0] {
			t.Fatalf("goroutine %d got a different network for n=%d", g, heights[g%len(heights)])
		}
	}
}

// FuzzMedianCols decodes the input into rows of raw IEEE-754 bit
// patterns (every NaN payload, subnormal and signed zero reachable) and
// checks MedianCols against MedianSelect at both widths.
func FuzzMedianCols(f *testing.F) {
	f.Add(uint8(3), uint8(5), []byte("\x00\x00\x00\x00\x00\x00\xf8\x7f0123456789abcdefghijklmnopqrstuvwxyz"))
	f.Add(uint8(25), uint8(40), make([]byte, 64))
	f.Fuzz(func(t *testing.T, nRows, nCols uint8, raw []byte) {
		n := 1 + int(nRows)%40
		d := 1 + int(nCols)%70
		word := func(i, w int) uint64 {
			var b uint64
			for k := 0; k < w && len(raw) > 0; k++ {
				b |= uint64(raw[(i*w+k)%len(raw)]) << (8 * k)
			}
			return b
		}
		rows64 := make([][]float64, n)
		rows32 := make([][]float32, n)
		for i := range rows64 {
			rows64[i] = make([]float64, d)
			rows32[i] = make([]float32, d)
			for j := 0; j < d; j++ {
				rows64[i][j] = math.Float64frombits(word(i*d+j, 8))
				rows32[i][j] = math.Float32frombits(uint32(word(i*d+j, 4)))
			}
		}
		lo := int(nRows) % d
		checkMedianCols(t, rows64, lo, d)
		checkMedianCols(t, rows32, lo, d)
	})
}
