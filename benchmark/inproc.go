package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"byzshield/internal/aggregate"
	"byzshield/internal/assign"
	"byzshield/internal/attack"
	"byzshield/internal/cluster"
	"byzshield/internal/data"
	"byzshield/internal/distort"
	"byzshield/internal/model"
	"byzshield/internal/obs"
	"byzshield/internal/trainer"
	"byzshield/internal/vote"
)

const (
	// setupReps is how many times a run sets its workload up; setup_s
	// is the median, and the last set-up is the one measured.
	setupReps = 7
	// warmupRounds run before every timed window (caches, pools, the
	// first full broadcast) and are not timed.
	warmupRounds = 10
	// minTimedRounds keeps at least ten rounds beyond p99.
	minTimedRounds = 1000
	// minTracedRounds bounds a traced window from below; per-layer
	// numbers are medians, so fewer rounds suffice.
	minTracedRounds = 200
	// searchBudget bounds the worst-case Byzantine search; a search
	// that hits it is reported as inexact and fails the c_max check.
	searchBudget = 60 * time.Second
)

// schedule and momentum are the training hyper-parameters of the
// in-process workloads (the repository's median-pipeline defaults).
var schedule = trainer.Schedule{Base: 0.05, Decay: 0.96, Every: 25}

const momentum = 0.9

// byzSearch runs the worst-case Byzantine search: the q-subset of
// workers that distorts the most files (c_max).
func byzSearch(asn *assign.Assignment, q int) (distort.SearchResult, time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), searchBudget)
	defer cancel()
	start := time.Now()
	res := distort.NewAnalyzer(asn).MaxDistorted(ctx, q)
	return res, time.Since(start)
}

// runEngine drives eng in a closed loop — each round starts when the
// previous one returns — for at least length and minRounds rounds,
// after warmupRounds untimed ones. A round's wall time is its StepOnce
// call; traced keeps every round's statistics in the window. A forced
// collection just before the window opens drops what set-up and
// warm-up left behind, and one after it closes samples the live heap
// in the window's state even when no collection ran inside it. When snapAt > 0 the parameters after round snapAt are returned
// (training continues untimed past the window if it has not got there).
func runEngine(eng *cluster.Engine, traced bool, length time.Duration, minRounds, snapAt int) (*window, []float64, error) {
	ctx := context.Background()
	var snap []float64
	step := func() (cluster.RoundStats, error) {
		rs, err := eng.StepOnce(ctx)
		if err == nil && eng.Iteration() == snapAt {
			snap = eng.Params()
		}
		return rs, err
	}
	w := newWindow(traced)
	for i := 0; i < warmupRounds; i++ {
		if _, err := step(); err != nil {
			return nil, nil, err
		}
	}
	runtime.GC()
	start := time.Now()
	for len(w.wall) < minRounds || time.Since(start) < length {
		t0 := time.Now()
		rs, err := step()
		if err != nil {
			return nil, nil, err
		}
		w.add(time.Since(t0), rs)
	}
	w.elapsed = time.Since(start)
	runtime.GC()
	w.heap.observe()
	for eng.Iteration() < snapAt {
		if _, err := step(); err != nil {
			return nil, nil, err
		}
	}
	return w, snap, nil
}

// addRoundCounters records the per-layer counts the program reports
// in its RoundStats.
func addRoundCounters(res *result, w *window, files int) {
	t := &w.tot
	res.metrics.set("vote.distorted_frac", w.perRound(float64(t.distorted))/float64(files), "fraction")
	res.metrics.set("vote.degraded_files", float64(t.degraded), "count")
	res.metrics.set("vote.dropped_files", float64(t.dropped), "count")
	res.metrics.set("detect.flagged_per_round", w.perRound(float64(t.flagged)), "count")
	res.metrics.set("detect.blacklisted", float64(t.blacklisted), "count")
	res.metrics.set("transport.stale_frames", float64(t.stale), "count")
	res.metrics.set("transport.evictions", float64(t.evictions), "count")
	res.metrics.set("transport.rejoins", float64(t.rejoins), "count")
	up := w.perRound(float64(t.reportBytes))
	raw := w.perRound(float64(t.reportRawBytes))
	bc := w.perRound(float64(t.bcBytes))
	res.metrics.set("wire.uplink_bytes_per_round", up, "bytes")
	res.metrics.set("wire.uplink_raw_bytes_per_round", raw, "bytes")
	res.metrics.set("wire.broadcast_bytes_per_round", bc, "bytes")
	res.metrics.set("wire_bytes_per_round", up+bc, "bytes")
}

// inprocWorkload is one in-process workload: prepare builds everything
// but the engine (assignment, worst-case search, data, model, any
// recording), engine builds an engine over it (parallelism 0 is the
// pool at GOMAXPROCS). snapAt is the round whose parameters give
// test_accuracy.
type inprocWorkload struct {
	batch, snapAt int
	prepare       func(seed int64) (*inprocSetup, error)
	engine        func(s *inprocSetup, tr *obs.Tracer, parallelism int) (*cluster.Engine, error)
	// layers adds the workload-specific per-layer metrics and checks
	// after the traced window.
	layers func(res *result, s *inprocSetup, w *window, seed int64) error
	// checks adds the workload-specific output checks of every run.
	checks func(res *result, s *inprocSetup, w *window, snap []float64) error
}

// inprocSetup is what prepare builds.
type inprocSetup struct {
	seed        int64
	asn         *assign.Assignment
	search      distort.SearchResult
	searchTime  time.Duration
	mdl         model.Model
	train, test *data.Dataset
	rec         *recording
}

// runInproc runs an in-process workload: setupReps set-ups, then one
// untraced window (the end-to-end metrics); with --trace 1, half the
// window untraced and half on a second, traced engine (the per-layer
// metrics and the tracing overhead).
func runInproc(o options, wl inprocWorkload) (*result, error) {
	res := &result{}
	var setups, searches []time.Duration
	var s *inprocSetup
	var eng *cluster.Engine
	for i := 0; i < setupReps; i++ {
		if eng != nil {
			eng.Close()
			eng, s = nil, nil
			runtime.GC() // drop the previous set-up before timing the next
		}
		start := time.Now()
		var err error
		if s, err = wl.prepare(o.seed); err != nil {
			return nil, err
		}
		if eng, err = wl.engine(s, nil, 0); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
		searches = append(searches, s.searchTime)
		fmt.Printf("setup %d: %.3fs, worst-case byzantine set %v (c_max %d of %d files, exact %v)\n",
			i, time.Since(start).Seconds(), s.search.Byzantines, s.search.CMax, s.asn.F, s.search.Exact)
	}
	defer eng.Close()

	length, minRounds := o.seconds, minTimedRounds
	if o.trace {
		length, minRounds = o.seconds/2, minTracedRounds
	}
	w, snap, err := runEngine(eng, false, length, minRounds, wl.snapAt)
	if err != nil {
		return nil, err
	}
	acc := model.Accuracy(s.mdl, snap, s.test)
	w.addEndToEnd(res, wl.batch, s.asn.K, medianDuration(setups), acc)
	res.metrics.set("distort.search_ms", ms(medianDuration(searches)), "ms")
	if !o.trace {
		res.expect("p99_tail_samples", len(w.wall) >= minTimedRounds, "%d rounds timed (>= %d keeps >= 10 beyond p99)", len(w.wall), minTimedRounds)
	}
	res.expect("test_accuracy", acc > 1/float64(s.mdl.Classes()), "accuracy %.4f after %d rounds (chance %.3f)", acc, wl.snapAt, 1/float64(s.mdl.Classes()))
	res.expect("all_reports", res.failed == 0, "%d of %d worker reports failed", res.failed, res.attempted)
	if err := wl.checks(res, s, w, snap); err != nil {
		return nil, err
	}
	if !o.trace {
		addRoundCounters(res, w, s.asn.F)
		return res, nil
	}

	untraced := w.samplesPerSec(wl.batch)
	tr := obs.NewTracer(traceRing)
	teng, err := wl.engine(s, tr, 0)
	if err != nil {
		return nil, err
	}
	defer teng.Close()
	tw, _, err := runEngine(teng, true, length, minRounds, 0)
	if err != nil {
		return nil, err
	}
	addRoundCounters(res, tw, s.asn.F)
	addPhaseMetrics(res, tr, tw)
	res.metrics.set("obs.trace_overhead", tw.samplesPerSec(wl.batch)/untraced-1, "fraction")
	res.metrics.set("model.compute_ms", tw.medianOf(func(rs *cluster.RoundStats) float64 { return ms(rs.Times.Compute) }), "ms")
	// No transport on the in-process path.
	res.metrics.set("transport.broadcast_ms", 0, "ms")
	res.metrics.set("transport.collect_wait_ms", 0, "ms")
	res.metrics.set("replay.collect_ms", 0, "ms")
	if err := wl.layers(res, s, tw, o.seed); err != nil {
		return nil, err
	}
	return res, nil
}

// runTrainALIE is the paper's Fig. 2 ByzShield cell: Ramanujan Case 2
// (K=25, f=25, r=5), the q=5 worst-case Byzantine set, ALIE (z=1),
// coordinate-wise median of the vote winners, an MLP 24→24→10 at batch
// 500 on the in-process engine.
func runTrainALIE(o options) (*result, error) {
	const batch = 500
	return runInproc(o, inprocWorkload{
		batch: batch, snapAt: 2000,
		prepare: func(seed int64) (*inprocSetup, error) {
			s := &inprocSetup{seed: seed}
			var err error
			if s.asn, err = assign.Ramanujan2(5, 5); err != nil {
				return nil, err
			}
			s.search, s.searchTime = byzSearch(s.asn, 5)
			if s.train, s.test, err = data.Synthetic(data.SyntheticConfig{
				Train: 3000, Test: 1000, Dim: 24, Classes: 10, ClassSep: 0.5, Seed: seed,
			}); err != nil {
				return nil, err
			}
			s.mdl, err = model.NewMLP(24, 24, 10)
			return s, err
		},
		engine: func(s *inprocSetup, tr *obs.Tracer, parallelism int) (*cluster.Engine, error) {
			return cluster.New(cluster.Config{
				Assignment: s.asn, Model: s.mdl, Train: s.train, Test: s.test,
				BatchSize: batch, Attack: attack.ALIE{ZOverride: 1.0}, Byzantines: s.search.Byzantines,
				Aggregator: aggregate.Median{}, Schedule: schedule, Momentum: momentum,
				Seed: s.seed, Parallelism: parallelism, Tracer: tr,
			})
		},
		checks: func(res *result, s *inprocSetup, w *window, _ []float64) error {
			// Table 4, q=5: c_max = 2, ε = 0.08.
			res.expect("c_max", s.search.CMax == 2 && s.search.Exact, "c_max %d (exact %v), Table 4 gives 2", s.search.CMax, s.search.Exact)
			res.expect("epsilon", s.search.Epsilon == 0.08, "ε %.4f, Table 4 gives 0.08", s.search.Epsilon)
			t := &w.tot
			res.expect("distorted_per_round", t.minDistorted == s.search.CMax && t.maxDistorted == s.search.CMax,
				"%d to %d files distorted per round over %d rounds, c_max %d", t.minDistorted, t.maxDistorted, len(w.wall), s.search.CMax)
			return nil
		},
		layers: func(res *result, s *inprocSetup, _ *window, seed int64) error {
			return probeLayers(res, shape{
				dim: s.mdl.NumParams(), files: s.asn.F, replicas: s.asn.R, load: s.asn.L,
				shards: 1,
			}, seed, nil)
		},
	})
}

const (
	// replayRounds is how many distinct rounds ps-replay-wide records.
	replayRounds = 2
	// replaySnapAt is the round whose parameters give ps-replay-wide's
	// test_accuracy and its serial-replay bit-identity check.
	replaySnapAt = 100
)

// runPSReplayWide is the parameter server's critical path alone:
// MOLS(5,3) (K=15, f=25, r=3), a replayed gradient stream with ALIE
// payloads from the q=3 worst-case set, median, softmax 256→32 (8,224
// parameters, four times tcp-f64's) at batch 250.
func runPSReplayWide(o options) (*result, error) {
	const batch = 250
	engine := func(s *inprocSetup, tr *obs.Tracer, parallelism int) (*cluster.Engine, error) {
		return cluster.New(cluster.Config{
			Assignment: s.asn, Model: s.mdl, Train: s.train, Test: s.test,
			BatchSize: batch, Aggregator: aggregate.Median{}, Schedule: schedule, Momentum: momentum,
			Seed: s.seed, Parallelism: parallelism, Source: &replaySource{rec: s.rec}, Tracer: tr,
		})
	}
	return runInproc(o, inprocWorkload{
		batch: batch, snapAt: replaySnapAt,
		prepare: func(seed int64) (*inprocSetup, error) {
			s := &inprocSetup{seed: seed}
			var err error
			if s.asn, err = assign.MOLS(5, 3); err != nil {
				return nil, err
			}
			s.search, s.searchTime = byzSearch(s.asn, 3)
			if s.train, s.test, err = data.Synthetic(data.SyntheticConfig{
				Train: replayRounds * batch, Test: 500, Dim: 256, Classes: 32, ClassSep: 0.25, Seed: seed,
			}); err != nil {
				return nil, err
			}
			if s.mdl, err = model.NewSoftmax(256, 32); err != nil {
				return nil, err
			}
			s.rec, err = record(s.asn, s.mdl, s.train, batch, replayRounds, attack.ALIE{ZOverride: 1.0}, s.search.Byzantines, seed)
			return s, err
		},
		engine: engine,
		checks: func(res *result, s *inprocSetup, _ *window, snap []float64) error {
			// Table 3, q=3: c_max = 3.
			res.expect("c_max", s.search.CMax == 3 && s.search.Exact, "c_max %d (exact %v), Table 3 gives 3", s.search.CMax, s.search.Exact)
			// The pooled engine must land on the same bits as a serial
			// replay of the same rounds.
			serial, err := engine(s, nil, 1)
			if err != nil {
				return err
			}
			defer serial.Close()
			for serial.Iteration() < replaySnapAt {
				if _, err := serial.RunRound(); err != nil {
					return err
				}
			}
			got, ref := hash64(snap), hash64(serial.Params())
			res.expect("replay_parallel_eq_serial", got == ref, "pooled %016x vs Parallelism:1 %016x after %d rounds", got, ref, replaySnapAt)
			return nil
		},
		layers: func(res *result, s *inprocSetup, w *window, seed int64) error {
			res.metrics.set("model.compute_ms", 0, "ms") // no model on the replay path
			res.metrics.set("replay.collect_ms", w.medianOf(func(rs *cluster.RoundStats) float64 { return ms(rs.Times.Communication) }), "ms")
			sets := s.rec.voteSets(s.asn, 0)
			distorted := 0
			for _, set := range sets {
				r, err := vote.Majority(set)
				if err != nil {
					return err
				}
				if &r.Winner[0] == &s.rec.payload[0][0] {
					distorted++
				}
			}
			res.metrics.set("vote.distorted_frac", float64(distorted)/float64(s.asn.F), "fraction")
			res.expect("distorted_files", distorted == s.search.CMax, "the payload wins %d file votes, c_max %d", distorted, s.search.CMax)
			return probeLayers(res, shape{
				dim: s.mdl.NumParams(), files: s.asn.F, replicas: s.asn.R, load: s.asn.L,
				shards: 1,
			}, seed, sets)
		},
	})
}
