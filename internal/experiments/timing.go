package experiments

import (
	"context"
	"fmt"
	"time"

	"byzshield/internal/aggregate"
	"byzshield/internal/attack"
	"byzshield/internal/cluster"
	"byzshield/internal/data"
	"byzshield/internal/detect"
	"byzshield/internal/model"
)

// TimingRow is one bar group of Figure 12: the per-iteration wall-clock
// split of a scheme into computation, communication, aggregation, and
// detection, plus the exact serialized message volume.
type TimingRow struct {
	Scheme string
	// PhaseTimes is the engine's accumulated phase split and measured
	// wire volume over the run (Aggregation covers vote + robust
	// aggregation + optimizer step; Detect, zero when no detector runs,
	// shows what the Byzantine defense itself costs).
	cluster.PhaseTimes
	Rounds int
	// MeanReputation is the fleet's mean reputation after the last
	// round (1 when detection is off); Blacklisted the final blacklist
	// size.
	MeanReputation float64
	Blacklisted    int
}

// PerIteration returns the phase times divided by the round count.
func (r TimingRow) PerIteration() (compute, comm, agg, det time.Duration) {
	n := time.Duration(r.Rounds)
	if n == 0 {
		n = 1
	}
	return r.Compute / n, r.Communication / n, r.Aggregation / n, r.Detect / n
}

// Figure12 measures the per-iteration time split for the three
// median-family schemes of the paper's timing comparison (baseline
// median, ByzShield, DETOX-MoM) under the ALIE attack with q = 3,
// K = 25. Communication is physically exercised via gob serialization
// (MeasureComm).
func Figure12(ctx context.Context, opts TrainOpts, rounds int) ([]TimingRow, error) {
	if rounds < 1 {
		rounds = 10
	}
	specs := []RunSpec{
		baselineMedianSpec(25, 3, attack.ALIE{}),
		byzShieldSpec(25, 3, attack.ALIE{}),
		detoxMoMSpec(25, 5, 3, attack.ALIE{}),
	}
	names := []string{"Median", "ByzShield", "DETOX-MoM"}
	var rows []TimingRow
	for i, spec := range specs {
		row, err := timeOne(ctx, names[i], spec, opts, rounds)
		if err != nil {
			return nil, fmt.Errorf("experiments: timing %s: %w", names[i], err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// timeOne runs `rounds` protocol rounds with communication measurement
// enabled and reports the accumulated phase times.
func timeOne(ctx context.Context, name string, spec RunSpec, opts TrainOpts, rounds int) (TimingRow, error) {
	asn, err := buildAssignment(&spec)
	if err != nil {
		return TimingRow{}, err
	}
	byz, _ := selectByzantines(ctx, asn, spec.Q, opts.SearchBudget)
	train, test, err := data.Synthetic(data.SyntheticConfig{
		Train: opts.TrainN, Test: opts.TestN, Dim: opts.Dim,
		Classes: opts.Classes, ClassSep: opts.ClassSep, Seed: opts.Seed,
	})
	if err != nil {
		return TimingRow{}, err
	}
	var mdl model.Model
	if opts.Hidden > 0 {
		mdl, err = model.NewMLP(opts.Dim, opts.Hidden, opts.Classes)
	} else {
		mdl, err = model.NewSoftmax(opts.Dim, opts.Classes)
	}
	if err != nil {
		return TimingRow{}, err
	}
	agg := spec.Aggregator
	if agg == nil {
		agg = aggregate.Median{}
	}
	var det detect.Detector
	if opts.Detector != "" {
		if det, err = components.Detector(opts.Detector); err != nil {
			return TimingRow{}, err
		}
	}
	eng, err := cluster.New(cluster.Config{
		Assignment:  asn,
		Model:       mdl,
		Train:       train,
		Test:        test,
		BatchSize:   opts.BatchSize,
		Attack:      spec.Attack,
		Byzantines:  byz,
		Aggregator:  agg,
		Schedule:    defaultSchedule,
		Momentum:    0.9,
		Seed:        opts.Seed,
		Detector:    det,
		MeasureComm: true,
		UplinkTier:  opts.Uplink,
		// Delta parameter broadcasts with a periodic full refresh — the
		// steady-state policy of the TCP server, so the measured
		// PS→worker volume reflects the bandwidth-aware wire protocol.
		BroadcastFullEvery: 16,
	})
	if err != nil {
		return TimingRow{}, err
	}
	defer eng.Close()
	meanRep, blacklisted := 1.0, 0
	for t := 0; t < rounds; t++ {
		stats, err := eng.StepOnce(ctx)
		if err != nil {
			return TimingRow{}, err
		}
		meanRep = stats.MeanReputation
		blacklisted = stats.Blacklisted
	}
	return TimingRow{
		Scheme:         name,
		PhaseTimes:     eng.Times(),
		Rounds:         rounds,
		MeanReputation: meanRep,
		Blacklisted:    blacklisted,
	}, nil
}
