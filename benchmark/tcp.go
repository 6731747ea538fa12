package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"byzshield/internal/cluster"
	"byzshield/internal/model"
	"byzshield/internal/obs"
	"byzshield/internal/registry"
	"byzshield/internal/trainer"
	"byzshield/internal/transport"
	"byzshield/internal/wire"
)

const (
	// fleetShards is the aggregation shard count of the fleet.
	fleetShards = 2
	// fleetDetector and fleetTier are the fleet's detector and uplink
	// tier.
	fleetDetector = "zscore"
	fleetTier     = wire.TierRaw
	// fleetSnapAt is the round whose parameters give test_accuracy and
	// are checked bit-for-bit against the in-process engine.
	fleetSnapAt = 1000
	// fleetRoundCap bounds Spec.Rounds; a run stops itself long before.
	fleetRoundCap = 1 << 24
)

// fleetSpec is the TCP workload's training spec: MOLS(5,3) (K=15,
// f=25, r=3), softmax 256→8 (dim 2056), batch 25 — one sample per
// file, so the round is dominated by the wire and the PS plane.
func fleetSpec(seed int64) transport.Spec {
	return transport.Spec{
		Scheme: "mols", L: 5, R: 3,
		Aggregator: "median",
		TrainN:     1000, TestN: 1000,
		Dim: 256, Classes: 8,
		DataSeed: seed, ClassSep: 2.0,
		BatchSize: 25,
		Schedule:  trainer.Schedule{Base: 0.05, Decay: 0.98, Every: 50},
		Momentum:  0.9, Seed: seed, Rounds: fleetRoundCap,
		Detector: fleetDetector,
		// Shadow mode: the detector scores and flags every round, but no
		// worker is ever blacklisted. Under the default policy zscore
		// blacklists an honest worker of this fleet within 50-2000
		// rounds on every seed tried (README.md, known defects), which
		// would turn the honest fleet into a failing one.
		DetectorParams: registry.DetectorParams{MinRounds: fleetRoundCap},
	}
}

// fleetPlan configures one fleet run.
type fleetPlan struct {
	k int
	// build constructs the server (with onRound installed) and any state
	// the workers share; it runs inside the timed set-up.
	build func(onRound func(cluster.RoundStats)) (*transport.Server, error)
	// worker runs worker u until ctx ends.
	worker func(ctx context.Context, addr string, u int) error
	// length and minRounds bound the timed window; length 0 stops the
	// fleet after its first round (a set-up repetition).
	length    time.Duration
	minRounds int
	// snap, when set, is called from the serve loop after round
	// fleetSnapAt (the fleet runs at least that long).
	snap func()
	// tracer is the server's round tracer, nil on untraced fleets.
	tracer *obs.Tracer
}

// fleetRun is the outcome of one fleet run.
type fleetRun struct {
	srv *transport.Server
	w   *window
	// setup is construction, the fleet join, and the first round.
	setup  time.Duration
	rounds int // rounds completed
}

// runFleet starts a server and K worker goroutines on loopback and
// drives the closed loop: the server starts round t+1 only after round
// t completed. The window opens after warmupRounds; a round's wall time
// runs from the end of one round's callback to the end of the next, so
// it covers everything the serve loop does per round. The run stops by
// canceling the serve context between rounds; the server then tears
// the connections down and every worker goroutine is joined before
// runFleet returns. The caller closes the returned server.
func runFleet(p fleetPlan) (*fleetRun, error) {
	runtime.GC() // start from a heap without earlier fleets' garbage
	start := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run := &fleetRun{w: newWindow(p.tracer != nil)}
	var prev, winStart time.Time
	stopped := false
	onRound := func(rs cluster.RoundStats) {
		now := time.Now()
		t := rs.Iteration
		if t == 0 {
			run.setup = now.Sub(start)
		}
		if t >= warmupRounds {
			run.w.add(now.Sub(prev), rs)
		}
		if t == warmupRounds-1 {
			// Collect what the fleet join left behind, so the window's
			// live-heap samples see the steady state, then open it.
			runtime.GC()
			now = time.Now()
			winStart = now
		}
		prev = now
		run.rounds = t + 1
		if p.snap != nil && run.rounds == fleetSnapAt {
			p.snap()
		}
		done := p.length == 0
		if !done && len(run.w.wall) >= p.minRounds && now.Sub(winStart) >= p.length {
			done = p.snap == nil || run.rounds >= fleetSnapAt
		}
		if done && !stopped {
			stopped = true
			run.w.elapsed = now.Sub(winStart)
			// Sample the live heap in the window's state even when no
			// collection ran inside it.
			runtime.GC()
			run.w.heap.observe()
			cancel()
		}
	}
	srv, err := p.build(onRound)
	if err != nil {
		return nil, err
	}
	run.srv = srv
	var wg sync.WaitGroup
	errs := make(chan error, p.k)
	for u := 0; u < p.k; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			// Errors after the stop are the teardown itself.
			if err := p.worker(ctx, srv.Addr(), u); err != nil && ctx.Err() == nil {
				errs <- fmt.Errorf("worker %d: %w", u, err)
			}
		}(u)
	}
	_, serveErr := srv.Serve(ctx)
	cancel()
	wg.Wait()
	select {
	case err := <-errs:
		srv.Close()
		return nil, err
	default:
	}
	if !stopped {
		srv.Close()
		return nil, fmt.Errorf("fleet stopped after %d rounds: %v", run.rounds, serveErr)
	}
	return run, nil
}

// runTCPF64 is the shipped wire plane: a loopback fleet of 15
// RunWorker goroutines against transport.Server, sharded (2) and
// pipelined, raw uplink, default delta broadcast, zscore detection on
// an honest fleet. The run makes setupReps fleet set-ups (each through
// its first round), then the timed fleet; with --trace 1, half the
// window untraced and half on a second, traced fleet. Every fleet's
// parameters after fleetSnapAt rounds are checked bit-for-bit against
// the in-process engine.
func runTCPF64(o options) (*result, error) {
	res := &result{}
	spec := fleetSpec(o.seed)
	asn, err := spec.BuildAssignment()
	if err != nil {
		return nil, err
	}
	mdl, err := spec.BuildModel()
	if err != nil {
		return nil, err
	}
	_, test, err := spec.BuildData()
	if err != nil {
		return nil, err
	}

	// snap and snapHash are the parameters after round fleetSnapAt and
	// the hash of their exact bits.
	var snap []float64
	var snapHash uint64
	var regs []*obs.Registry
	plan := func(length time.Duration, minRounds int, tr *obs.Tracer) fleetPlan {
		p := fleetPlan{k: asn.K, length: length, minRounds: minRounds, tracer: tr}
		var srv *transport.Server
		var shared *transport.SharedWorkerState
		regs = nil
		if tr != nil {
			for u := 0; u < asn.K; u++ {
				regs = append(regs, obs.NewRegistry())
			}
		}
		p.build = func(onRound func(cluster.RoundStats)) (*transport.Server, error) {
			var err error
			srv, err = transport.NewServer("127.0.0.1:0", transport.ServerConfig{
				Spec: spec, Shards: fleetShards, Pipeline: true, Uplink: fleetTier,
				EvalEvery: fleetRoundCap + 1, OnRound: onRound, Tracer: tr,
			})
			if err != nil {
				return nil, err
			}
			shared, err = transport.NewSharedWorkerState(spec)
			return srv, err
		}
		p.worker = func(ctx context.Context, addr string, u int) error {
			cfg := transport.WorkerConfig{ID: u, Shared: shared, ReconnectAttempts: -1}
			if regs != nil {
				cfg.Metrics = regs[u]
			}
			_, err := transport.RunWorker(ctx, addr, cfg)
			return err
		}
		p.snap = func() {
			snap = srv.Params()
			snapHash = hash64(snap)
		}
		return p
	}

	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		run, err := runFleet(plan(0, 0, nil))
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		run.srv.Close()
		setups = append(setups, run.setup)
		fmt.Printf("setup %d: %.3fs (fleet of %d joined, first round done)\n", i, run.setup.Seconds(), asn.K)
	}

	length, minRounds := o.seconds, minTimedRounds
	if o.trace {
		length, minRounds = o.seconds/2, minTracedRounds
	}
	run, err := runFleet(plan(length, minRounds, nil))
	if err != nil {
		return nil, err
	}
	run.srv.Close()
	acc := model.Accuracy(mdl, snap, test)
	run.w.addEndToEnd(res, spec.BatchSize, asn.K, medianDuration(setups), acc)
	if !o.trace {
		res.expect("p99_tail_samples", len(run.w.wall) >= minTimedRounds, "%d rounds timed (>= %d keeps >= 10 beyond p99)", len(run.w.wall), minTimedRounds)
	}
	res.expect("test_accuracy", acc > 1/float64(mdl.Classes()), "accuracy %.4f after %d rounds (chance %.3f)", acc, fleetSnapAt, 1/float64(mdl.Classes()))
	want, err := engineHash(spec, fleetSnapAt)
	if err != nil {
		return nil, err
	}
	checkFleet(res, "fleet", run, snapHash, want)
	addRoundCounters(res, run.w, asn.F)
	res.metrics.set("distort.search_ms", 0, "ms")
	if !o.trace {
		return res, nil
	}

	untraced := run.w.samplesPerSec(spec.BatchSize)
	tr := obs.NewTracer(traceRing)
	trun, err := runFleet(plan(length, minRounds, tr))
	if err != nil {
		return nil, err
	}
	trun.srv.Close()
	checkFleet(res, "traced_fleet", trun, snapHash, want)
	addRoundCounters(res, trun.w, asn.F)
	res.metrics.set("replay.collect_ms", 0, "ms")
	sh := shape{
		dim: mdl.NumParams(), files: asn.F, replicas: asn.R, load: asn.L,
		shards: wire.ShardCount(fleetShards, mdl.NumParams()),
	}
	if err := probeLayers(res, sh, o.seed, nil); err != nil {
		return nil, err
	}
	res.metrics.set("obs.trace_overhead", trun.w.samplesPerSec(spec.BatchSize)/untraced-1, "fraction")
	addPhaseMetrics(res, tr, trun.w)
	var sum, count float64
	for _, r := range regs {
		for _, s := range r.Gather() {
			switch s.Name {
			case "byzworker_compute_seconds_sum":
				sum += s.Value
			case "byzworker_compute_seconds_count":
				count += s.Value
			}
		}
	}
	res.metrics.set("model.compute_ms", 1e3*sum/max(count, 1), "ms")
	return res, nil
}

// checkFleet checks a fleet run's outputs: every report arrived, nobody
// was blacklisted, and the hash of the parameters after round
// fleetSnapAt (got) equals the in-process engine's (want).
func checkFleet(res *result, label string, run *fleetRun, got, want uint64) {
	t := &run.w.tot
	res.expect(label+"_reports", t.missing == 0, "%d failed worker reports in %d rounds", t.missing, len(run.w.wall))
	res.expect(label+"_blacklist", t.newlyBlacklisted == 0, "%d workers blacklisted on the honest fleet", t.newlyBlacklisted)
	res.expect(label+"_eq_engine", got == want, "fleet %016x vs in-process engine %016x after %d rounds", got, want, fleetSnapAt)
}

// engineHash runs the in-process engine (cluster.New with the spec's
// detector and policy, at the fleet's shard count and tier) over spec
// for rounds rounds and hashes its parameters. A fleet over the same
// spec must land on the same bits.
func engineHash(spec transport.Spec, rounds int) (uint64, error) {
	asn, err := spec.BuildAssignment()
	if err != nil {
		return 0, err
	}
	train, test, err := spec.BuildData()
	if err != nil {
		return 0, err
	}
	mdl, err := spec.BuildModel()
	if err != nil {
		return 0, err
	}
	agg, err := spec.BuildAggregator()
	if err != nil {
		return 0, err
	}
	det, err := spec.BuildDetector()
	if err != nil {
		return 0, err
	}
	eng, err := cluster.New(cluster.Config{
		Assignment: asn, Model: mdl, Train: train, Test: test,
		BatchSize: spec.BatchSize, Aggregator: agg,
		Schedule: spec.Schedule, Momentum: spec.Momentum, Seed: spec.Seed,
		Shards: fleetShards, UplinkTier: fleetTier,
		Detector: det, Detection: spec.DetectorParams.Policy(),
	})
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	for i := 0; i < rounds; i++ {
		if _, err := eng.RunRound(); err != nil {
			return 0, err
		}
	}
	return hash64(eng.Params()), nil
}
