package experiments

import (
	"context"
	"testing"
	"time"
)

// TestFleetScalingSmoke drives the scaling sweep end to end at the
// smallest fleet: all four planes over one worker count, asserting
// every mode reproduces its in-process engine reference bit-for-bit
// (the lossless modes sharing one trajectory, the quantized mode its
// own tier-pinned one) and the speedup column is anchored to the
// serial baseline.
func TestFleetScalingSmoke(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	points, err := FleetScaling(ctx, FleetConfig{
		WorkerCounts: []int{15},
		Rounds:       3,
		Warmup:       1,
		Reps:         1,
		InputDim:     8,
		Classes:      4,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	modes := FleetModes(2)
	if len(points) != len(modes) {
		t.Fatalf("got %d points, want %d", len(points), len(modes))
	}
	for i, pt := range points {
		if pt.Mode != modes[i].Name {
			t.Errorf("point %d mode %q, want %q", i, pt.Mode, modes[i].Name)
		}
		if !pt.BitIdentical {
			t.Errorf("mode %s K=%d: final parameters differ from the engine", pt.Mode, pt.Workers)
		}
		if pt.RoundsPerSec <= 0 {
			t.Errorf("mode %s K=%d: rounds/sec %v not positive", pt.Mode, pt.Workers, pt.RoundsPerSec)
		}
		if modes[i].Uplink.Lossy() {
			// A lossy tier must actually be lossy: landing on the
			// lossless bits would mean the quantization never ran.
			if pt.ParamsHash == points[0].ParamsHash {
				t.Errorf("mode %s K=%d: params hash matches the lossless trajectory", pt.Mode, pt.Workers)
			}
		} else if pt.ParamsHash != points[0].ParamsHash {
			t.Errorf("mode %s K=%d: params hash %x != serial %x",
				pt.Mode, pt.Workers, pt.ParamsHash, points[0].ParamsHash)
		}
	}
	if points[0].Mode != "serial" || points[0].Speedup != 1 {
		t.Errorf("baseline point = %+v, want serial with speedup 1", points[0])
	}
}

// TestFleetScalingRejectsBadWorkerCount pins the FRC precondition: a
// worker count that is not a positive multiple of 3 is a config error,
// not a panic deep in assignment construction.
func TestFleetScalingRejectsBadWorkerCount(t *testing.T) {
	_, err := FleetScaling(context.Background(), FleetConfig{WorkerCounts: []int{16}})
	if err == nil {
		t.Fatal("worker count 16 accepted, want error")
	}
}
