package transport

import (
	"context"
	"errors"
	"math"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"byzshield/internal/cluster"
	"byzshield/internal/linalg"
	"byzshield/internal/registry"
	"byzshield/internal/wire"
)

// engineParams runs the in-process engine over the experiment described
// by spec at the given pool width and returns the final parameters.
func engineParams(t *testing.T, spec Spec, parallelism int) []float64 {
	t.Helper()
	return engineParamsOf[float64](t, spec, parallelism, 0, wire.TierRaw)
}

// engineParamsOf is engineParams at width F, with the engine pinned to
// a shard count and uplink tier (lossy tiers quantize per shard range,
// so a lossy reference must match the wire's shard count).
func engineParamsOf[F linalg.Float](t *testing.T, spec Spec, parallelism, shards int, tier wire.UplinkTier) []F {
	t.Helper()
	asn, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	mdl, err := spec.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := spec.BuildData()
	if err != nil {
		t.Fatal(err)
	}
	agg, err := spec.BuildAggregator()
	if err != nil {
		t.Fatal(err)
	}
	det, err := spec.BuildDetector()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cluster.NewEngine(cluster.ConfigOf[F]{
		Assignment: asn, Model: mdl, Train: train, Test: test,
		BatchSize: spec.BatchSize, Aggregator: agg,
		Schedule: spec.Schedule, Momentum: spec.Momentum, Seed: spec.Seed,
		Parallelism: parallelism, Shards: shards, UplinkTier: tier,
		Detector: det, Detection: spec.DetectorParams.Policy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < spec.Rounds; i++ {
		if _, err := eng.RunRound(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	return eng.Params()
}

// wireParams runs the same experiment over loopback TCP and returns the
// server's final parameters.
func wireParams(t *testing.T, spec Spec) []float64 {
	t.Helper()
	return wireParamsOf[float64](t, spec, ServerConfig{})
}

// wireParamsOf runs spec over loopback TCP on a width-F server built
// from cfg (its Spec is replaced by spec); the workers learn the width
// from the handshake.
func wireParamsOf[F linalg.Float](t *testing.T, spec Spec, cfg ServerConfig) []F {
	t.Helper()
	cfg.Spec = spec
	srv, err := NewServerOf[F]("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	asn, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for u := 0; u < asn.K; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			if _, err := RunWorker(context.Background(), srv.Addr(), WorkerConfig{ID: u}); err != nil {
				t.Errorf("worker %d: %v", u, err)
			}
		}(u)
	}
	if _, err := srv.Serve(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	return srv.Params()
}

// TestLoopbackBitIdenticalToEngine: for a fixed seed with no faults,
// the serial in-process engine, the pooled in-process engine, and the
// TCP loopback cluster all execute the shared round core and must
// produce bit-identical final parameters — the wire is a transparent
// gradient source, not a second implementation of the protocol.
//
// The sharded+pipelined wire plane and the lossy sign tier (against an
// engine quantizing at the same granularity) must match too.
func TestLoopbackBitIdenticalToEngine(t *testing.T) { testLoopbackBitIdentical[float64](t) }

// TestLoopback32BitIdenticalToEngine32 runs the same pins at float32.
func TestLoopback32BitIdenticalToEngine32(t *testing.T) { testLoopbackBitIdentical[float32](t) }

// testLoopbackBitIdentical pins serial engine == pooled+sharded engine
// == unsharded wire == sharded+pipelined wire at width F, and the sign
// tier's wire path against its in-process quantization.
func testLoopbackBitIdentical[F linalg.Float](t *testing.T) {
	spec := testSpec(8)
	serial := engineParamsOf[F](t, spec, 1, 0, wire.TierRaw)
	for name, got := range map[string][]F{
		"pooled+sharded engine":  engineParamsOf[F](t, spec, 4, 3, wire.TierRaw),
		"wire path":              wireParamsOf[F](t, spec, ServerConfig{}),
		"sharded+pipelined wire": wireParamsOf[F](t, spec, ServerConfig{Shards: 3, Pipeline: true}),
	} {
		if !linalg.EqualBits(got, serial) {
			t.Errorf("%s diverged from the serial engine", name)
		}
	}
	signEng := engineParamsOf[F](t, spec, 1, 0, wire.TierSign)
	signWire := wireParamsOf[F](t, spec, ServerConfig{Uplink: wire.TierSign})
	if !linalg.EqualBits(signWire, signEng) {
		t.Error("sign-tier wire path diverged from the quantizing engine")
	}
}

// waitRejoinPending polls until worker u has a validated rejoin
// connection parked for round-boundary admission.
func waitRejoinPending[F linalg.Float](t *testing.T, srv *ServerOf[F], u int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		srv.src.mu.Lock()
		pending := srv.src.workers[u].pending != nil
		srv.src.mu.Unlock()
		if pending {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("worker %d rejoin never became pending", u)
}

// workerToken reads worker u's current session token.
func workerToken[F linalg.Float](srv *ServerOf[F], u int) uint64 {
	srv.src.mu.Lock()
	defer srv.src.mu.Unlock()
	return srv.src.workers[u].token
}

// TestWorkerRejoinBitIdenticalTrajectory kills worker 4 between rounds,
// restarts it with its session token, and blocks the serve loop (via
// OnRound) until the rejoin is parked — so the replacement lands before
// the next round's deadline. The worker must participate again at the
// very next round boundary, no round may see a missing worker, and the
// final parameters must be bit-identical to an uninterrupted run: a
// fast enough rejoin is invisible to the trajectory.
func TestWorkerRejoinBitIdenticalTrajectory(t *testing.T) {
	const victim = 4
	spec := testSpec(8)
	baseline := wireParams(t, spec)

	var mu sync.Mutex
	var stats []cluster.RoundStats
	var srv *Server
	restarted := make(chan error, 1)
	workerCtx, killWorker := context.WithCancel(context.Background())
	defer killWorker()

	srvCfg := ServerConfig{
		Spec:         spec,
		RoundTimeout: 30 * time.Second,
		OnRound: func(rs cluster.RoundStats) {
			mu.Lock()
			stats = append(stats, rs)
			mu.Unlock()
			if rs.Iteration != 3 {
				return
			}
			// Between rounds 3 and 4: kill the worker process, then
			// restart it with the session token. OnRound blocks the
			// serve loop, so round 4 starts only after the rejoin is
			// parked for admission.
			killWorker()
			token := workerToken(srv, victim)
			go func() {
				_, err := RunWorker(context.Background(), srv.Addr(), WorkerConfig{
					ID:          victim,
					ResumeToken: token,
				})
				restarted <- err
			}()
			waitRejoinPending(t, srv, victim)
		},
	}
	var err error
	srv, err = NewServer("127.0.0.1:0", srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	asn, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for u := 0; u < asn.K; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			ctx := context.Background()
			cfg := WorkerConfig{ID: u}
			if u == victim {
				ctx = workerCtx
				cfg.ReconnectAttempts = -1 // the test restarts it explicitly
			}
			_, err := RunWorker(ctx, srv.Addr(), cfg)
			if u == victim {
				if !errors.Is(err, context.Canceled) {
					t.Errorf("killed worker returned %v, want context.Canceled", err)
				}
			} else if err != nil {
				t.Errorf("worker %d: %v", u, err)
			}
		}(u)
	}
	if _, err := srv.Serve(context.Background()); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	wg.Wait()
	if err := <-restarted; err != nil {
		t.Errorf("restarted worker: %v", err)
	}

	if len(stats) != spec.Rounds {
		t.Fatalf("recorded %d rounds, want %d", len(stats), spec.Rounds)
	}
	for _, rs := range stats {
		if len(rs.MissingWorkers) != 0 {
			t.Errorf("round %d: missing %v — rejoin before the deadline must be invisible", rs.Iteration, rs.MissingWorkers)
		}
	}
	got := srv.Params()
	for i := range baseline {
		if math.Float64bits(got[i]) != math.Float64bits(baseline[i]) {
			t.Fatalf("param %d: rejoin run diverged from uninterrupted run (%x vs %x)",
				i, math.Float64bits(got[i]), math.Float64bits(baseline[i]))
		}
	}
}

// TestEvictedWorkerRejoinsAfterMissedRounds: a worker whose connection
// breaks mid-round is evicted and its rounds degrade; restarting it
// with the session token re-admits it at the next round boundary and
// MissingWorkers shrinks back to empty for the remaining rounds.
func TestEvictedWorkerRejoinsAfterMissedRounds(t *testing.T) {
	const victim = 2
	spec := testSpec(10)

	var mu sync.Mutex
	var stats []cluster.RoundStats
	var srv *Server
	restarted := make(chan error, 1)
	srvCfg := ServerConfig{
		Spec:         spec,
		RoundTimeout: 10 * time.Second,
		OnRound: func(rs cluster.RoundStats) {
			mu.Lock()
			stats = append(stats, rs)
			mu.Unlock()
			// After the first degraded round, restart the victim with
			// its token and hold the serve loop until it is parked.
			if rs.Iteration == 4 {
				token := workerToken(srv, victim)
				go func() {
					_, err := RunWorker(context.Background(), srv.Addr(), WorkerConfig{
						ID:          victim,
						ResumeToken: token,
					})
					restarted <- err
				}()
				waitRejoinPending(t, srv, victim)
			}
		},
	}
	var err error
	srv, err = NewServer("127.0.0.1:0", srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	asn, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for u := 0; u < asn.K; u++ {
		if u == victim {
			continue
		}
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			if _, err := RunWorker(context.Background(), srv.Addr(), WorkerConfig{ID: u}); err != nil {
				t.Errorf("worker %d: %v", u, err)
			}
		}(u)
	}
	// Serve runs in the background: it owns the accept loop, so the
	// victim's manual handshake below needs it live.
	serveDone := make(chan error, 1)
	go func() {
		_, err := srv.Serve(context.Background())
		serveDone <- err
	}()

	// The victim joins manually, participates through round 3, then
	// drops its connection mid-round 4 without reporting — a real crash
	// as the server sees it (EOF ⇒ eviction).
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	victimConn := NewConn(raw)
	if _, err := victimConn.Send(Hello{WorkerID: victim, Version: wire.ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	msg, err := victimConn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	welcome, ok := msg.(Welcome)
	if !ok {
		t.Fatalf("expected Welcome, got %T", msg)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		st, err := manualWorker(victim, welcome.Spec, welcome)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			msg, err := victimConn.Recv()
			if err != nil {
				t.Errorf("victim recv: %v", err)
				return
			}
			m, ok := msg.(RoundStart)
			if !ok {
				t.Errorf("victim got %T", msg)
				return
			}
			if err := st.applyParams(&m); err != nil {
				t.Error(err)
				return
			}
			if m.Iteration == 4 {
				victimConn.Close() // crash mid-round, report never sent
				return
			}
			files, samples, err := st.roundWork(&m)
			if err != nil {
				t.Error(err)
				return
			}
			msgs, err := st.computeReport(m.Iteration, files, samples)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := victimConn.SendMany(msgs...); err != nil {
				t.Errorf("victim send: %v", err)
				return
			}
		}
	}()

	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	wg.Wait()
	if err := <-restarted; err != nil {
		t.Errorf("restarted worker: %v", err)
	}

	sawMissing := false
	for _, rs := range stats {
		switch {
		case rs.Iteration < 4:
			if len(rs.MissingWorkers) != 0 {
				t.Errorf("round %d: missing %v before the crash", rs.Iteration, rs.MissingWorkers)
			}
		case rs.Iteration == 4:
			if len(rs.MissingWorkers) != 1 || rs.MissingWorkers[0] != victim {
				t.Errorf("crash round missing %v, want [%d]", rs.MissingWorkers, victim)
			}
			sawMissing = true
		default:
			// Re-admitted at the round-5 boundary: participation is whole
			// again by the next round after the crash.
			if len(rs.MissingWorkers) != 0 {
				t.Errorf("round %d: missing %v after rejoin", rs.Iteration, rs.MissingWorkers)
			}
		}
	}
	if !sawMissing {
		t.Error("the crash round never degraded — test exercised nothing")
	}
}

// TestWireDeltaBroadcastReducesBytes: on the same spec, the default
// delta broadcast policy must move strictly fewer PS→worker bytes than
// FullBroadcastEvery=1 (full vector every round) while producing the
// identical parameter trajectory.
func TestWireDeltaBroadcastReducesBytes(t *testing.T) {
	spec := testSpec(8)
	run := func(fullEvery int) (int64, []float64) {
		t.Helper()
		var total int64
		srv, err := NewServer("127.0.0.1:0", ServerConfig{
			Spec:               spec,
			FullBroadcastEvery: fullEvery,
			OnRound: func(rs cluster.RoundStats) {
				if rs.Times.BroadcastBytes <= 0 {
					t.Errorf("round %d: no broadcast bytes measured", rs.Iteration)
				}
				total += rs.Times.BroadcastBytes
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		asn, err := spec.BuildAssignment()
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for u := 0; u < asn.K; u++ {
			wg.Add(1)
			go func(u int) {
				defer wg.Done()
				if _, err := RunWorker(context.Background(), srv.Addr(), WorkerConfig{ID: u}); err != nil {
					t.Errorf("worker %d: %v", u, err)
				}
			}(u)
		}
		if _, err := srv.Serve(context.Background()); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		return total, srv.Params()
	}
	fullBytes, fullParams := run(1)
	deltaBytes, deltaParams := run(DefaultFullBroadcastEvery)
	if deltaBytes >= fullBytes {
		t.Errorf("delta broadcasts moved %d bytes, always-full %d — no saving", deltaBytes, fullBytes)
	}
	for i := range fullParams {
		if math.Float64bits(fullParams[i]) != math.Float64bits(deltaParams[i]) {
			t.Fatalf("param %d: broadcast policy changed the trajectory", i)
		}
	}
}

// TestCrashedWorkerDoesNotAbortTCPTraining: a worker that crashes
// mid-run (injected via the Spec's fault model) is evicted; the
// remaining rounds vote degraded over the surviving replicas and
// training completes with per-round participation stats instead of
// erroring out.
func TestCrashedWorkerDoesNotAbortTCPTraining(t *testing.T) {
	spec := testSpec(12)
	spec.Fault = "crash"
	spec.FaultParams = registry.FaultParams{Workers: []int{2}, Round: 4}

	var mu sync.Mutex
	var stats []cluster.RoundStats
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		Spec:         spec,
		RoundTimeout: 10 * time.Second,
		OnRound: func(rs cluster.RoundStats) {
			mu.Lock()
			stats = append(stats, rs)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	asn, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, asn.K)
	for u := 0; u < asn.K; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			_, errs[u] = RunWorker(context.Background(), srv.Addr(), WorkerConfig{ID: u})
		}(u)
	}
	final, err := srv.Serve(context.Background())
	if err != nil {
		t.Fatalf("Serve aborted despite quorum being met: %v", err)
	}
	wg.Wait()

	if !errors.Is(errs[2], ErrInjectedCrash) {
		t.Errorf("worker 2 returned %v, want ErrInjectedCrash", errs[2])
	}
	for u, e := range errs {
		if u != 2 && e != nil {
			t.Errorf("worker %d: %v", u, e)
		}
	}
	if len(stats) != spec.Rounds {
		t.Fatalf("recorded %d round stats, want %d", len(stats), spec.Rounds)
	}
	for _, rs := range stats[:4] {
		if len(rs.MissingWorkers) != 0 {
			t.Errorf("round %d: missing %v before the crash", rs.Iteration, rs.MissingWorkers)
		}
	}
	for _, rs := range stats[4:] {
		if len(rs.MissingWorkers) != 1 || rs.MissingWorkers[0] != 2 {
			t.Errorf("round %d: missing %v, want [2]", rs.Iteration, rs.MissingWorkers)
		}
		// Worker 2 holds l = 5 files; with r = 3 each keeps 2 survivors,
		// which meets the default quorum of 2 → degraded, not dropped.
		if rs.DegradedFiles != 5 || rs.DroppedFiles != 0 {
			t.Errorf("round %d: degraded %d dropped %d, want 5/0", rs.Iteration, rs.DegradedFiles, rs.DroppedFiles)
		}
	}
	if final < 0.5 {
		t.Errorf("degraded training accuracy %.3f < 0.5", final)
	}
}

// TestFlakySkipsDoNotEvict: a flaky worker that skips rounds with an
// explicit empty report is counted missing for those rounds but keeps
// its connection and participates again later.
func TestFlakySkipsDoNotEvict(t *testing.T) {
	spec := testSpec(12)
	spec.Fault = "flaky"
	spec.FaultParams = registry.FaultParams{Workers: []int{1}, P: 0.5, Seed: 9}

	var mu sync.Mutex
	var stats []cluster.RoundStats
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		Spec: spec,
		OnRound: func(rs cluster.RoundStats) {
			mu.Lock()
			stats = append(stats, rs)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	asn, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, asn.K)
	for u := 0; u < asn.K; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			_, errs[u] = RunWorker(context.Background(), srv.Addr(), WorkerConfig{ID: u})
		}(u)
	}
	if _, err := srv.Serve(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for u, e := range errs {
		if e != nil {
			t.Errorf("worker %d: %v (flaky skips must not kill workers)", u, e)
		}
	}
	skipped, full := 0, 0
	for _, rs := range stats {
		if len(rs.MissingWorkers) > 0 {
			skipped++
		} else {
			full++
		}
	}
	if skipped == 0 || full == 0 {
		t.Errorf("flaky worker: %d skipped rounds, %d full rounds; want both > 0", skipped, full)
	}
}

// TestHeterogeneousWireFaults: Spec.Faults composes distinct fault
// models for distinct workers in one run — worker 1 is flaky while
// worker 3 fail-stops mid-run — and every worker process derives the
// same composed schedule from the Spec alone.
func TestHeterogeneousWireFaults(t *testing.T) {
	spec := testSpec(12)
	spec.Faults = []FaultSpec{
		{Name: "flaky", Params: registry.FaultParams{Workers: []int{1}, P: 0.5, Seed: 9}},
		{Name: "crash", Params: registry.FaultParams{Workers: []int{3}, Round: 6}},
	}

	var mu sync.Mutex
	var stats []cluster.RoundStats
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		Spec:         spec,
		RoundTimeout: 10 * time.Second,
		OnRound: func(rs cluster.RoundStats) {
			mu.Lock()
			stats = append(stats, rs)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	asn, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, asn.K)
	for u := 0; u < asn.K; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			_, errs[u] = RunWorker(context.Background(), srv.Addr(), WorkerConfig{ID: u})
		}(u)
	}
	if _, err := srv.Serve(context.Background()); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	wg.Wait()

	if !errors.Is(errs[3], ErrInjectedCrash) {
		t.Errorf("crashing worker 3 returned %v, want ErrInjectedCrash", errs[3])
	}
	for u, e := range errs {
		if u != 3 && e != nil {
			t.Errorf("worker %d: %v", u, e)
		}
	}
	flakyMissed := 0
	for _, rs := range stats {
		if rs.Iteration >= 6 && !slices.Contains(rs.MissingWorkers, 3) {
			t.Errorf("round %d: crashed worker 3 not missing (%v)", rs.Iteration, rs.MissingWorkers)
		}
		if slices.Contains(rs.MissingWorkers, 1) {
			flakyMissed++
		}
	}
	if flakyMissed == 0 || flakyMissed == len(stats) {
		t.Errorf("flaky worker 1 missed %d/%d rounds; want strictly between", flakyMissed, len(stats))
	}
}

// TestStragglerPastDeadlineMissesRoundsButSurvives: a worker whose
// every report is slower than the round deadline is marked missing each
// round, but — because frames are self-delimiting and reads resume —
// its connection survives: the server discards its stale reports at the
// next round boundary and the worker still receives the final Shutdown
// instead of being torn down. (Under protocol v1's gob stream the first
// missed deadline evicted it permanently.)
func TestStragglerPastDeadlineMissesRoundsButSurvives(t *testing.T) {
	spec := testSpec(3)
	spec.Fault = "straggler"
	spec.FaultParams = registry.FaultParams{Workers: []int{3}, Delay: 700 * time.Millisecond}

	var mu sync.Mutex
	var stats []cluster.RoundStats
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		Spec:         spec,
		RoundTimeout: 200 * time.Millisecond,
		OnRound: func(rs cluster.RoundStats) {
			mu.Lock()
			stats = append(stats, rs)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	asn, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, asn.K)
	for u := 0; u < asn.K; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			_, errs[u] = RunWorker(context.Background(), srv.Addr(), WorkerConfig{ID: u})
		}(u)
	}
	if _, err := srv.Serve(context.Background()); err != nil {
		t.Fatalf("Serve aborted: %v", err)
	}
	wg.Wait()
	for u, e := range errs {
		if e != nil {
			t.Errorf("worker %d: %v (stragglers must stay connected)", u, e)
		}
	}
	for _, rs := range stats {
		if len(rs.MissingWorkers) != 1 || rs.MissingWorkers[0] != 3 {
			t.Errorf("round %d: missing %v, want [3]", rs.Iteration, rs.MissingWorkers)
		}
	}
}

// TestServer32RejectsF64Worker: a worker whose Hello offers only f64
// cannot join an f32 server; the handshake answers with the typed
// precision reject instead of a codec error mid-run.
func TestServer32RejectsF64Worker(t *testing.T) {
	srv, err := NewServerOf[float32]("127.0.0.1:0", ServerConfig{Spec: testSpec(2)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.Serve(ctx)
	}()
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(raw)
	defer conn.Close()
	if _, err := conn.Send(Hello{
		WorkerID: 0, Version: wire.ProtocolVersion,
		Tiers: wire.AllTiersMask, Precisions: wire.PrecisionF64.Mask(),
	}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	msg, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	rej, ok := msg.(Reject)
	if !ok || rej.Code != RejectPrecision {
		t.Fatalf("f64-only Hello to an f32 server got %#v, want a precision reject", msg)
	}
	cancel()
	<-serveDone
}

// TestWorker32RejoinRenegotiation kills a worker between rounds on an
// int8-uplink f32 run and restarts it with its session token but a
// raw-only tier mask. The server must renegotiate the connection
// down to the raw tier (never substituting another lossy tier),
// re-admit the worker at the next round boundary, and finish the run
// with no missing rounds after the rejoin.
func TestWorker32RejoinRenegotiation(t *testing.T) {
	const victim = 3
	spec := testSpec(8)

	var mu sync.Mutex
	var stats []cluster.RoundStats
	var srv *ServerOf[float32]
	restarted := make(chan error, 1)
	workerCtx, killWorker := context.WithCancel(context.Background())
	defer killWorker()

	cfg := ServerConfig{
		Spec:         spec,
		Uplink:       wire.TierInt8,
		RoundTimeout: 30 * time.Second,
		OnRound: func(rs cluster.RoundStats) {
			mu.Lock()
			stats = append(stats, rs)
			mu.Unlock()
			if rs.Iteration != 3 {
				return
			}
			// Between rounds 3 and 4: kill the worker process, then
			// restart it with the session token but only the lossless
			// raw tier on offer. OnRound blocks the serve loop, so round 4
			// starts only after the rejoin is parked for admission.
			killWorker()
			token := workerToken(srv, victim)
			go func() {
				_, err := RunWorker(context.Background(), srv.Addr(), WorkerConfig{
					ID:          victim,
					ResumeToken: token,
					Tiers:       wire.TierRaw.Mask(),
				})
				restarted <- err
			}()
			waitRejoinPending(t, srv, victim)
		},
	}
	var err error
	srv, err = NewServerOf[float32]("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	asn, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for u := 0; u < asn.K; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			ctx := context.Background()
			wcfg := WorkerConfig{ID: u}
			if u == victim {
				ctx = workerCtx
				wcfg.ReconnectAttempts = -1 // the test restarts it explicitly
			}
			_, err := RunWorker(ctx, srv.Addr(), wcfg)
			if u == victim {
				if !errors.Is(err, context.Canceled) {
					t.Errorf("killed worker returned %v, want context.Canceled", err)
				}
			} else if err != nil {
				t.Errorf("worker %d: %v", u, err)
			}
		}(u)
	}
	if _, err := srv.Serve(context.Background()); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	wg.Wait()
	if err := <-restarted; err != nil {
		t.Errorf("restarted worker: %v", err)
	}

	if len(stats) != spec.Rounds {
		t.Fatalf("recorded %d rounds, want %d", len(stats), spec.Rounds)
	}
	for _, rs := range stats {
		if rs.Iteration >= 5 && len(rs.MissingWorkers) != 0 {
			t.Errorf("round %d: missing %v after the rejoin boundary", rs.Iteration, rs.MissingWorkers)
		}
	}
	srv.src.mu.Lock()
	tier := srv.src.workers[victim].tier
	srv.src.mu.Unlock()
	if tier != wire.TierRaw {
		t.Errorf("rejoined worker renegotiated to tier %s, want %s", tier, wire.TierRaw)
	}
	if c := srv.Counters(); c.Rejoins < 1 {
		t.Errorf("counters recorded %d rejoins, want >= 1", c.Rejoins)
	}
}
