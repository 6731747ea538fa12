package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Coordinate-median benchmarks: the tiled network kernel (MedianCols)
// against the per-column quickselect it replaced, at the vote-winner
// counts the repository trains with (f = 15 and f = 25), both widths,
// on three inputs: dense normal data; zero rows (more than half the
// rows exactly ±0, as a file of saturated samples gives); and scattered
// zeros (more than half of every column exactly ±0, but in different
// rows per column). Each reports ns/coord. BenchmarkMedianColsCap
// sweeps the column height past medianNetCap with the network forced
// on, which is how the cap was chosen:
//
//	go test ./internal/linalg -bench 'BenchmarkMedianCols' -run '^$'

// benchMedianDim is the column count of the median benchmarks: about
// the width of the ps-replay-wide model, so rows stream from L2.
const benchMedianDim = 8192

// benchMedianRows returns n rows of benchMedianDim values of the given
// data kind: "dense", "zerorows" or "zeroscat".
func benchMedianRows[T Float](n int, data string) [][]T {
	rng := rand.New(rand.NewSource(int64(n)))
	rows := make([][]T, n)
	for i := range rows {
		rows[i] = make([]T, benchMedianDim)
		for j := range rows[i] {
			var zero bool
			switch data {
			case "zerorows":
				zero = i <= n/2
			case "zeroscat":
				zero = (i+j)%n <= n/2
			}
			switch {
			case !zero:
				rows[i][j] = T(rng.NormFloat64())
			case rng.Intn(2) == 0:
				rows[i][j] = T(math.Copysign(0, -1))
			}
		}
	}
	return rows
}

// benchMedianSelect is the per-column quickselect loop the aggregation
// and detection kernels ran before MedianCols.
func benchMedianSelect[T Float](b *testing.B, rows [][]T) {
	col := make([]T, len(rows))
	out := make([]T, benchMedianDim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := range out {
			for j, r := range rows {
				col[j] = r[c]
			}
			out[c] = MedianSelect(col)
		}
	}
	reportNsPerCoord(b)
}

func benchMedianCols[T Float](b *testing.B, rows [][]T, ops []medianOp) {
	var s MedianScratch[T]
	out := make([]T, benchMedianDim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		medianColsNetwork(rows, out, 0, len(out), &s, ops)
	}
	reportNsPerCoord(b)
}

func reportNsPerCoord(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchMedianDim, "ns/coord")
}

func benchMedianPair[T Float](b *testing.B, name string, n int, data string) {
	rows := benchMedianRows[T](n, data)
	b.Run(name+"/network", func(b *testing.B) { benchMedianCols(b, rows, medianNetwork(n)) })
	b.Run(name+"/select", func(b *testing.B) { benchMedianSelect(b, rows) })
}

func BenchmarkMedianCols(b *testing.B) {
	for _, n := range []int{15, 25} {
		for _, data := range []string{"dense", "zerorows", "zeroscat"} {
			benchMedianPair[float64](b, fmt.Sprintf("f64-n%d-%s", n, data), n, data)
			benchMedianPair[float32](b, fmt.Sprintf("f32-n%d-%s", n, data), n, data)
		}
	}
}

// BenchmarkMedianColsCap compares the network, built at any height,
// with quickselect on dense f64 columns around medianNetCap.
func BenchmarkMedianColsCap(b *testing.B) {
	for _, n := range []int{64, 256, 512, 768} {
		rows := benchMedianRows[float64](n, "dense")
		ops := buildMedianNetwork(n)
		b.Run(fmt.Sprintf("n%d/network", n), func(b *testing.B) { benchMedianCols(b, rows, ops) })
		b.Run(fmt.Sprintf("n%d/select", n), func(b *testing.B) { benchMedianSelect(b, rows) })
	}
}
