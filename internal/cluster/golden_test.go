package cluster

import (
	"hash/fnv"
	"testing"

	"byzshield/internal/aggregate"
	"byzshield/internal/assign"
	"byzshield/internal/attack"
	"byzshield/internal/data"
	"byzshield/internal/linalg"
	"byzshield/internal/model"
	"byzshield/internal/trainer"
)

// TestGoldenTrajectoryPins pins the exact final parameters of two
// median-aggregated trajectories against hashes recorded before the
// coordinate-median kernel moved from per-column quickselect to the
// tiled sorting network (linalg.MedianCols). A kernel change that
// alters any median the engine applies — a different order statistic,
// a rounding difference on even counts, a zero sign reaching the
// optimizer — changes the hash.
//
//   - alie-mlp is the train-alie benchmark shape: Ramanujan Case 2
//     (K=25, f=25, r=5), an MLP 24→24→10, ALIE at z=1 from the fixed
//     Byzantine set [0 1 5 6 18] (fixed so the pin does not depend on
//     which of the equally-worst sets the search returns).
//   - f32-softmax is an f32 MOLS(5,3) softmax engine, 128→8, whose
//     upper 64 inputs are dead: half of every weight row aggregates
//     zero-majority columns of ±0 gradients, the other half trains.
func TestGoldenTrajectoryPins(t *testing.T) {
	sched := trainer.Schedule{Base: 0.05, Decay: 0.96, Every: 25}
	t.Run("alie-mlp", func(t *testing.T) {
		a, err := assign.Ramanujan2(5, 5)
		if err != nil {
			t.Fatal(err)
		}
		train, test, err := data.Synthetic(data.SyntheticConfig{
			Train: 3000, Test: 1000, Dim: 24, Classes: 10, ClassSep: 0.5, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := model.NewMLP(24, 24, 10)
		if err != nil {
			t.Fatal(err)
		}
		goldenRun(t, Config{
			Assignment: a, Model: m, Train: train, Test: test,
			BatchSize: 500, Attack: attack.ALIE{ZOverride: 1.0}, Byzantines: []int{0, 1, 5, 6, 18},
			Aggregator: aggregate.Median{}, Schedule: sched, Momentum: 0.9, Seed: 1,
		}, 60, 0xed213bdd802563e3)
	})
	t.Run("f32-softmax", func(t *testing.T) {
		a, err := assign.MOLS(5, 3)
		if err != nil {
			t.Fatal(err)
		}
		train, test, err := data.Synthetic(data.SyntheticConfig{
			Train: 1000, Test: 200, Dim: 128, Classes: 8, ClassSep: 1, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Dead inputs (an image's constant border): their weights get
		// exactly-zero gradients of either sign every round.
		for _, d := range []*data.Dataset{train, test} {
			for _, x := range d.X {
				clear(x[64:])
			}
		}
		m, err := model.NewSoftmax(128, 8)
		if err != nil {
			t.Fatal(err)
		}
		goldenRun(t, ConfigOf[float32]{
			Assignment: a, Model: m, Train: train, Test: test,
			BatchSize: 100, Attack: attack.ALIE{ZOverride: 1.0}, Byzantines: []int{0, 5, 11},
			Aggregator: aggregate.Median{}, Schedule: sched, Momentum: 0.9, Seed: 3,
		}, 100, 0xb3e0d9397c3edcf8)
	})
}

// goldenRun trains rounds rounds of cfg on the pooled engine and
// compares the final parameters' FNV-1a hash (over the little-endian
// words of width F) with want.
func goldenRun[F linalg.Float](t *testing.T, cfg ConfigOf[F], rounds int, want uint64) {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < rounds; i++ {
		if _, err := e.RunRound(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	h := fnv.New64a()
	var b [8]byte
	w := linalg.Width[F]()
	for _, v := range e.Params() {
		bits := linalg.Bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:w])
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("final parameters hash %#016x after %d rounds, pinned %#016x", got, rounds, want)
	}
}
