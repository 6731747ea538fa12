package cluster

import (
	"math"
	"testing"

	"byzshield/internal/aggregate"
	"byzshield/internal/attack"
	"byzshield/internal/linalg"
	"byzshield/internal/registry"
)

// aggParams gives every registry aggregator knobs that are valid for the
// 25 post-vote operands of MOLS(5,3).
var aggParams = map[string]registry.AggregatorParams{
	"krum":         {C: 2},
	"multikrum":    {C: 2},
	"bulyan":       {C: 2},
	"trimmed-mean": {Trim: 2},
}

// TestSerialParallelBitIdentical is the determinism regression test of
// the engine redesign: for every registry aggregator, a serial engine
// (Parallelism = 1) and pooled engines (explicit widths plus the
// GOMAXPROCS default) must produce bit-identical parameter vectors after
// 20 rounds of the same seeded run with r = 3 replication and an active
// attack. Explicit widths 3 and 8 force the pool even on single-core
// machines, where the GOMAXPROCS default degenerates to serial.
//
// The f32/<aggregator> subtests run the same matrix at float32, where the
// attack plane crafts from widened rows and non-coordinate-wise rules
// aggregate widened winners.
func TestSerialParallelBitIdentical(t *testing.T) {
	testSerialParallelBitIdentical[float64](t, "")
	testSerialParallelBitIdentical[float32](t, "f32/")
}

// testSerialParallelBitIdentical runs every registry aggregator at
// width F, naming subtests prefix+aggregator.
func testSerialParallelBitIdentical[F linalg.Float](t *testing.T, prefix string) {
	reg := registry.Default
	for _, name := range reg.Aggregators() {
		t.Run(prefix+name, func(t *testing.T) {
			run := func(parallelism int) []F {
				agg, err := reg.Aggregator(name, aggParams[name])
				if err != nil {
					t.Fatal(err)
				}
				cfg := testSetupOf[F](t, []int{2, 7, 11}, attack.ALIE{}, agg)
				cfg.Parallelism = parallelism
				e, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				for i := 0; i < 20; i++ {
					if _, err := e.RunRound(); err != nil {
						t.Fatalf("round %d (parallelism %d): %v", i, parallelism, err)
					}
				}
				return e.Params()
			}
			serial := run(1)
			for _, width := range []int{3, 8, 0} {
				parallel := run(width)
				if len(serial) != len(parallel) {
					t.Fatalf("param lengths differ: %d vs %d", len(serial), len(parallel))
				}
				for i := range serial {
					if linalg.Bits(serial[i]) != linalg.Bits(parallel[i]) {
						t.Fatalf("width %d: param %d diverged: serial %v, parallel %v",
							width, i, serial[i], parallel[i])
					}
				}
			}
		})
	}
}

// TestMeasureCommPreservesTrajectory asserts that the physically
// measured communication round-trip (binary codec encode/decode of every
// worker message) does not perturb training: parameters after 10 rounds
// are bit-identical with and without MeasureComm.
func TestMeasureCommPreservesTrajectory(t *testing.T) {
	run := func(measure bool) []float64 {
		cfg := testSetup(t, []int{0, 5}, attack.Reversed{C: 2}, mustAggregator(t, "median"))
		cfg.MeasureComm = measure
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for i := 0; i < 10; i++ {
			if _, err := e.RunRound(); err != nil {
				t.Fatal(err)
			}
		}
		return e.Params()
	}
	plain := run(false)
	measured := run(true)
	for i := range plain {
		if math.Float64bits(plain[i]) != math.Float64bits(measured[i]) {
			t.Fatalf("param %d diverged under MeasureComm: %v vs %v", i, plain[i], measured[i])
		}
	}
}

func mustAggregator(t *testing.T, name string) aggregate.Aggregator {
	t.Helper()
	agg, err := registry.Default.Aggregator(name, aggParams[name])
	if err != nil {
		t.Fatal(err)
	}
	return agg
}
