package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sync"
	"time"

	"byzshield/internal/cluster"
	"byzshield/internal/linalg"
	"byzshield/internal/obs"
	"byzshield/internal/trainer"
	"byzshield/internal/transport"
	"byzshield/internal/wire"
)

// FleetMode names one aggregation-plane configuration of the scaling
// sweep.
type FleetMode struct {
	Name     string
	Shards   int
	Pipeline bool
	// Uplink is the report codec tier the server negotiates for this
	// mode.
	Uplink wire.UplinkTier
}

// FleetModes are the planes every sweep point runs, in order:
//
//   - serial: the plane as it shipped before sharding — one
//     aggregation pass over the whole vector after every report lands,
//     no round prep — on the raw uplink. This is the baseline the
//     speedup column is relative to.
//   - sharded / pipelined: per-shard report frames and early shard
//     votes; plus prep pipelining — the configuration shipped for
//     CPU-bound loopback fleets.
//   - quantized: the pipelined plane on the lossy int8 uplink tier —
//     every report row ships 8-bit linear-quantized with per-(file,
//     shard) scale parameters. Its trajectory is checked bit-for-bit
//     against an in-process engine running the same tier and shard
//     count, not against the lossless reference.
func FleetModes(shards int) []FleetMode {
	return []FleetMode{
		{Name: "serial", Uplink: wire.TierRaw},
		{Name: "sharded", Shards: shards, Uplink: wire.TierRaw},
		{Name: "pipelined", Shards: shards, Pipeline: true, Uplink: wire.TierRaw},
		{Name: "quantized", Shards: shards, Pipeline: true, Uplink: wire.TierInt8},
	}
}

// FleetPoint is one (worker count, mode) measurement of the scaling
// sweep.
type FleetPoint struct {
	Workers int
	Files   int
	Mode    string
	Rounds  int
	// Elapsed covers the measured rounds only (the warmup rounds —
	// fleet join, first broadcasts — are excluded).
	Elapsed      time.Duration
	RoundsPerSec float64
	// Speedup is RoundsPerSec over the serial baseline (the plane as
	// configured before sharding) at the same worker count (1 for the
	// baseline itself).
	Speedup float64
	// ParamsHash fingerprints the final parameter bits (FNV-1a over
	// the IEEE-754 words); every mode at a worker count must agree,
	// and all must agree with the in-process engine.
	ParamsHash uint64
	// BitIdentical reports that this point's final parameters matched
	// the serial in-process engine bit-for-bit.
	BitIdentical bool
}

// FleetConfig parameterizes the scaling sweep.
type FleetConfig struct {
	// WorkerCounts are the loopback fleet sizes, each a multiple of 3
	// (the FRC replication). Typical: 15, 60, 240, 960.
	WorkerCounts []int
	// Rounds per point (after Warmup).
	Rounds int
	// Warmup rounds excluded from the timing window (default 2).
	Warmup int
	// Reps runs each (worker count, mode) point this many times and
	// keeps the fastest (default 3). Loopback fleets on a shared box
	// see multi-x run-to-run noise from scheduler and GC timing;
	// best-of-N measures the plane, not the neighbors. Bit-identity is
	// checked on every rep regardless.
	Reps int
	// InputDim and Classes size the softmax model: the parameter
	// dimension is InputDim*Classes + Classes. Defaults 256 and 8
	// (dim 2056).
	InputDim, Classes int
	// Shards is the shard count for the sharded/pipelined modes
	// (default 2).
	Shards int
	// Modes restricts the sweep to the named planes (default all).
	// Without "serial" in the set there is no baseline, so the
	// speedup column stays zero — useful when profiling one plane in
	// isolation.
	Modes []string
	// Precision selects the sweep's numeric tier: the same planes run
	// over a server and engine instantiated at float64 (the default) or
	// float32.
	Precision wire.Precision
	// Seed fixes the data/batch stream.
	Seed int64
	// Tracer, when non-nil, receives one RoundTrace per round from every
	// point's server; the sweep labels it "mode/K=<count>" per point so a
	// JSONL sink (byzfleet -trace-out) separates the sweep's runs.
	Tracer *obs.Tracer
	// Logf receives progress lines; nil disables.
	Logf func(format string, args ...any)
}

// fleetSpec builds the sweep's Spec for one worker count: FRC(K, 3) —
// one file per worker, K/3 files — with a one-sample-per-file batch, so
// the per-round cost is wire- and plane-dominated rather than
// compute-dominated, which is the regime the sharded/pipelined plane
// targets.
func (c FleetConfig) fleetSpec(k int) transport.Spec {
	f := k / 3
	train := 4 * f
	if train < 256 {
		train = 256
	}
	return transport.Spec{
		Scheme: "frc", R: 3, K: k,
		Aggregator: "mean",
		TrainN:     train, TestN: 64,
		Dim: c.InputDim, Classes: c.Classes,
		DataSeed: c.Seed, ClassSep: 2.0,
		BatchSize: f,
		Schedule:  trainer.Schedule{Base: 0.05, Decay: 0.98, Every: 50},
		Momentum:  0.9, Seed: c.Seed, Rounds: c.Rounds + c.Warmup,
	}
}

// engineFinalParams runs the in-process engine over spec and returns
// its final parameters — the reference trajectory a wire mode must
// reproduce bit-for-bit. Lossless modes all share one reference
// (shards and codec choice cannot move a bit); a lossy mode needs the
// engine pinned to its own tier AND shard count, because lossy
// quantization happens per shard range.
func engineFinalParams[F linalg.Float](spec transport.Spec, shards int, tier wire.UplinkTier) ([]F, error) {
	asn, err := spec.BuildAssignment()
	if err != nil {
		return nil, err
	}
	mdl, err := spec.BuildModel()
	if err != nil {
		return nil, err
	}
	train, test, err := spec.BuildData()
	if err != nil {
		return nil, err
	}
	agg, err := spec.BuildAggregator()
	if err != nil {
		return nil, err
	}
	eng, err := cluster.NewEngine(cluster.ConfigOf[F]{
		Assignment: asn, Model: mdl, Train: train, Test: test,
		BatchSize: spec.BatchSize, Aggregator: agg,
		Schedule: spec.Schedule, Momentum: spec.Momentum, Seed: spec.Seed,
		Shards: shards, UplinkTier: tier,
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	for i := 0; i < spec.Rounds; i++ {
		if _, err := eng.RunRound(); err != nil {
			return nil, fmt.Errorf("engine round %d: %v", i, err)
		}
	}
	return eng.Params(), nil
}

// hashParams fingerprints a parameter vector's exact bits (FNV-1a over
// the little-endian IEEE-754 words of its width).
func hashParams[F linalg.Float](p []F) uint64 {
	h := fnv.New64a()
	var b [8]byte
	w := linalg.Width[F]()
	for _, v := range p {
		bits := linalg.Bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:w])
	}
	return h.Sum64()
}

// runFleetPoint drives one loopback fleet — K RunWorker goroutines
// sharing one SharedWorkerState against one server — and times the
// post-warmup rounds.
func runFleetPoint[F linalg.Float](ctx context.Context, c FleetConfig, spec transport.Spec, mode FleetMode) (FleetPoint, []F, error) {
	pt := FleetPoint{Workers: spec.K, Files: spec.K / 3, Mode: mode.Name, Rounds: c.Rounds}
	var windowStart, windowEnd time.Time
	srvCfg := transport.ServerConfig{
		Spec:               spec,
		Shards:             mode.Shards,
		Pipeline:           mode.Pipeline,
		EvalEvery:          spec.Rounds + 1,
		RoundTimeout:       5 * time.Minute,
		Uplink:             mode.Uplink,
		FullBroadcastEvery: 1,
		Tracer:             c.Tracer,
		OnRound: func(rs cluster.RoundStats) {
			if rs.Iteration == c.Warmup-1 {
				windowStart = time.Now()
			}
			if rs.Iteration == spec.Rounds-1 {
				windowEnd = time.Now()
			}
		},
	}
	srv, err := transport.NewServerOf[F]("127.0.0.1:0", srvCfg)
	if err != nil {
		return pt, nil, err
	}
	defer srv.Close()
	shared, err := transport.NewSharedWorkerState(spec)
	if err != nil {
		return pt, nil, err
	}
	var wg sync.WaitGroup
	workerErr := make(chan error, spec.K)
	for u := 0; u < spec.K; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			_, err := transport.RunWorker(ctx, srv.Addr(), transport.WorkerConfig{
				ID: u, Shared: shared, ReconnectAttempts: -1,
			})
			if err != nil {
				workerErr <- fmt.Errorf("worker %d: %w", u, err)
			}
		}(u)
	}
	if _, err := srv.Serve(ctx); err != nil {
		srv.Close()
		wg.Wait()
		return pt, nil, err
	}
	wg.Wait()
	select {
	case err := <-workerErr:
		return pt, nil, err
	default:
	}
	if windowStart.IsZero() || windowEnd.IsZero() {
		return pt, nil, fmt.Errorf("fleet %s K=%d: timing window never closed", mode.Name, spec.K)
	}
	pt.Elapsed = windowEnd.Sub(windowStart)
	if pt.Elapsed > 0 {
		pt.RoundsPerSec = float64(c.Rounds) / pt.Elapsed.Seconds()
	}
	params := srv.Params()
	pt.ParamsHash = hashParams(params)
	return pt, params, nil
}

// FleetScaling runs the rounds/sec-vs-worker-count scaling sweep: for
// each worker count, the serial (pre-shard config), sharded,
// sharded+pipelined, and quantized planes drive the same loopback
// fleet over the identical Spec, and every mode's final parameters are
// checked bit-for-bit against an in-process engine — the lossless
// modes against one shared reference (all three must land on the same
// bits), the quantized mode against an engine pinned to its own uplink
// tier and shard count. The returned points are grouped by worker
// count in mode order (serial first).
func FleetScaling(ctx context.Context, cfg FleetConfig) ([]FleetPoint, error) {
	if cfg.Rounds < 1 {
		cfg.Rounds = 20
	}
	if cfg.Warmup < 1 {
		cfg.Warmup = 2
	}
	if cfg.Reps < 1 {
		cfg.Reps = 3
	}
	if cfg.InputDim == 0 {
		cfg.InputDim = 256
	}
	if cfg.Classes == 0 {
		cfg.Classes = 8
	}
	if cfg.Shards == 0 {
		cfg.Shards = 2
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if len(cfg.WorkerCounts) == 0 {
		cfg.WorkerCounts = []int{15, 60, 240}
	}
	if cfg.Precision == wire.PrecisionF32 {
		return fleetScaling[float32](ctx, cfg)
	}
	return fleetScaling[float64](ctx, cfg)
}

// fleetScaling runs the sweep with server, workers, and reference
// engines instantiated at width F.
func fleetScaling[F linalg.Float](ctx context.Context, cfg FleetConfig) ([]FleetPoint, error) {
	var out []FleetPoint
	for _, k := range cfg.WorkerCounts {
		if k < 3 || k%3 != 0 {
			return nil, fmt.Errorf("fleet: worker count %d is not a positive multiple of 3 (FRC r=3)", k)
		}
		spec := cfg.fleetSpec(k)
		losslessRef, err := engineFinalParams[F](spec, 0, wire.TierRaw)
		if err != nil {
			return nil, err
		}
		var baseline float64
		for _, mode := range FleetModes(cfg.Shards) {
			if len(cfg.Modes) > 0 && !slices.Contains(cfg.Modes, mode.Name) {
				continue
			}
			if cfg.Tracer != nil {
				cfg.Tracer.SetLabel(fmt.Sprintf("%s/K=%d", mode.Name, k))
			}
			ref := losslessRef
			if mode.Uplink.Lossy() {
				// A lossy mode's reference engine must quantize at the
				// same granularity the wire does: same tier, same shards.
				if ref, err = engineFinalParams[F](spec, mode.Shards, mode.Uplink); err != nil {
					return nil, fmt.Errorf("fleet %s K=%d reference: %w", mode.Name, k, err)
				}
			}
			var pt FleetPoint
			allIdentical := true
			for rep := 0; rep < cfg.Reps; rep++ {
				// Settle the heap between reps so one point's garbage
				// (thousands of conn buffers) is not collected inside the
				// next point's timing window.
				runtime.GC()
				rp, params, err := runFleetPoint[F](ctx, cfg, spec, mode)
				if err != nil {
					return nil, fmt.Errorf("fleet %s K=%d: %w", mode.Name, k, err)
				}
				allIdentical = allIdentical && linalg.EqualBits(params, ref)
				if rep == 0 || rp.RoundsPerSec > pt.RoundsPerSec {
					pt = rp
				}
			}
			pt.BitIdentical = allIdentical
			if mode.Name == "serial" {
				baseline = pt.RoundsPerSec
			}
			if baseline > 0 {
				pt.Speedup = pt.RoundsPerSec / baseline
			}
			cfg.Logf("fleet K=%d mode=%-9s %6.2f rounds/s (%.2fx) bit-identical=%v",
				k, mode.Name, pt.RoundsPerSec, pt.Speedup, pt.BitIdentical)
			out = append(out, pt)
		}
	}
	return out, nil
}
