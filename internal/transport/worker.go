package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"byzshield/internal/advnet"
	"byzshield/internal/assign"
	"byzshield/internal/attack"
	"byzshield/internal/data"
	"byzshield/internal/fault"
	"byzshield/internal/linalg"
	"byzshield/internal/model"
	"byzshield/internal/obs"
	"byzshield/internal/wire"
)

// ErrInjectedCrash is returned by RunWorker when the Spec's fault model
// schedules this worker to crash: the process stops participating and
// the parameter server continues over the survivors (or re-admits the
// worker if it is restarted with the session token).
var ErrInjectedCrash = errors.New("transport: worker crashed by fault injection")

// ErrBlacklisted is returned by RunWorker when the parameter server
// refuses the handshake with Reject{RejectBlacklisted}: the detection
// layer revoked this worker's session permanently, so reconnecting can
// never help.
var ErrBlacklisted = errors.New("transport: worker blacklisted by the parameter server")

// DefaultReconnectAttempts is the number of automatic reconnect
// attempts a worker makes after losing its connection mid-run, when
// WorkerConfig.ReconnectAttempts is zero.
const DefaultReconnectAttempts = 5

// defaultReconnectDelay is the base backoff between reconnect attempts
// (doubled per consecutive failure).
const defaultReconnectDelay = 100 * time.Millisecond

// WorkerBehavior selects how a worker process responds to gradient
// requests. Attacks that require only local knowledge run standalone;
// the omniscient ALIE attack needs the global gradient population and
// therefore requires the adversary sidecar (WorkerConfig.AdvAddr): the
// coalition leader reconstructs the population moments deterministically
// from the Spec and shares them through the hub, reproducing the
// in-process omniscient attacker bit-for-bit (see DESIGN.md).
type WorkerBehavior string

// Worker behaviors.
const (
	BehaviorHonest   WorkerBehavior = "honest"
	BehaviorReversed WorkerBehavior = "reversed"  // send −g
	BehaviorConstant WorkerBehavior = "constant"  // send a constant vector
	BehaviorZero     WorkerBehavior = "zero"      // send zeros (crash-like)
	BehaviorSignFlip WorkerBehavior = "sign-flip" // send −g (the registry sign-flip attack)
	BehaviorALIE     WorkerBehavior = "alie"      // coordinated µ − z·σ via the sidecar
)

// WorkerConfig configures a worker process.
type WorkerConfig struct {
	ID       int
	Behavior WorkerBehavior
	// ConstantValue is the payload value for BehaviorConstant (default −1).
	ConstantValue float64
	// ReconnectAttempts bounds the automatic rejoin attempts after the
	// connection to the PS breaks mid-run: 0 selects
	// DefaultReconnectAttempts, negative disables reconnecting (any
	// connection loss is fatal, matching protocol v1). Each successful
	// rejoin resets the budget.
	ReconnectAttempts int
	// ResumeToken, when nonzero, makes the very first Hello a rejoin
	// attempt with this session token — how a restarted worker process
	// re-enters a run it was evicted from (byzworker -resume-token).
	ResumeToken uint64
	// Tiers is the bitmask of uplink codec tiers this worker offers in
	// its Hello (OR of wire.UplinkTier.Mask values); 0 offers every tier
	// (wire.AllTiersMask). Restricting the mask makes the server
	// downgrade this connection to the raw tier — how a fleet keeps a
	// lossy run interoperable with workers that cannot (or should not)
	// quantize.
	Tiers uint8
	// AdvAddr is the adversary sidecar hub (cmd/byzadv) this Byzantine
	// worker coordinates through; required for BehaviorALIE. The worker
	// joins the coalition before its first PS handshake.
	AdvAddr string
	// ALIEZ overrides ALIE's z factor (0 derives z from the cluster and
	// coalition sizes via attack.ZMax, matching the in-process attack).
	ALIEZ float64
	// Metrics, when non-nil, receives the worker-side metric families
	// (byzworker_* counters: rounds, report bytes, skips, reconnects,
	// rejections, plus the current-round and tier gauges and the local
	// compute-time histogram) — the mirror of the PS registry a fleet
	// operator scrapes per worker process (byzworker -metrics-addr).
	Metrics *obs.Registry
	// Shared, when non-nil, supplies the heavyweight Spec-derived state
	// (dataset, model, fault plan, assignment) from a pool shared by
	// every worker in the process — what lets a loopback fleet run
	// thousands of workers without K copies of the training set. It must
	// be built (NewSharedWorkerState) from the same Spec the server
	// serves; the models' gradient scratch is sync.Pool-backed, so
	// concurrent SumGradient calls across workers are safe.
	Shared *SharedWorkerState
	// Logf receives progress lines; nil disables logging.
	Logf func(format string, args ...any)
}

// SharedWorkerState is the read-only (or concurrency-safe) per-Spec
// state many in-process workers can share; see WorkerConfig.Shared.
type SharedWorkerState struct {
	mdl   model.Model
	train *data.Dataset
	flt   fault.Fault
	asn   *assign.Assignment

	// bound caches the model's kernels per precision (a float32 bind
	// narrows the dataset once for the whole fleet).
	mu    sync.Mutex
	bound [2]any
}

// NewSharedWorkerState builds the shareable worker state for spec.
func NewSharedWorkerState(spec Spec) (*SharedWorkerState, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s := &SharedWorkerState{}
	var err error
	if s.mdl, err = spec.BuildModel(); err != nil {
		return nil, err
	}
	if s.train, _, err = spec.BuildData(); err != nil {
		return nil, err
	}
	if s.flt, err = spec.BuildFault(); err != nil {
		return nil, err
	}
	if s.asn, err = spec.BuildAssignment(); err != nil {
		return nil, err
	}
	return s, nil
}

// sharedBound returns sh's model kernels at width F, binding them on
// first use.
func sharedBound[F linalg.Float](sh *SharedWorkerState) (*model.Bound[F], error) {
	p := wire.PrecisionOf[F]()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if b, ok := sh.bound[p].(*model.Bound[F]); ok {
		return b, nil
	}
	b, err := model.Bind[F](sh.mdl, sh.train)
	if err != nil {
		return nil, err
	}
	sh.bound[p] = b
	return b, nil
}

// worker is the durable cross-connection state of one worker process:
// everything a rejoin must not lose that does not depend on the
// connection's precision.
type worker struct {
	cfg WorkerConfig
	// token is the session token the last Welcome assigned.
	token uint64
	spec  Spec
	flt   fault.Fault
	asn   *assign.Assignment
	// rounds serves rounds at the precision the first Welcome pinned
	// (a *workerState[F]); nil before the first handshake.
	rounds roundServer
	// side is the adversary sidecar state (nil outside coalitions).
	side *sidecar
	// ins is the worker-side metric state (nil with metrics disabled;
	// every method is nil-safe).
	ins *workerInstruments
}

// roundServer is a width-instantiated round loop: it serves rounds on
// one handshaken connection until Shutdown or a connection failure.
type roundServer interface {
	serve(ctx context.Context, conn *Conn, welcome *Welcome) (float64, error)
}

// workerState is the width-F half of a worker: the parameter vector,
// the model kernels, and the per-connection codec and report scratch.
type workerState[F linalg.Float] struct {
	*worker
	train *model.Bound[F]
	// params is the worker's copy of the model vector, patched in place
	// by delta broadcasts; lastApplied is the iteration whose broadcast
	// it reflects (-1 before any).
	params      []F
	lastApplied int
	// shards/ranges mirror the Welcome's shard plane: the worker ships
	// one report frame per shard, each covering its contiguous
	// coordinate range of every assigned file's gradient. enc is the
	// uplink encoder (stateless, so one serves every shard), and
	// frames/reps/msgs are the per-shard send scratch.
	shards int
	ranges [][2]int
	enc    wire.UplinkEncoderOf[F]
	frames [][]byte
	reps   []GradientReport
	msgs   []Message
	// pipeline mirrors Welcome.Pipeline. prepIter is the iteration of
	// the last RoundPrep received on this connection (-1 before any);
	// prepSamples are its per-slot sample lists, valid for the matching
	// RoundStart. filesStatic is this worker's assignment in static slot
	// order — prep rounds carry no file ids, only samples in this order.
	pipeline    bool
	prepIter    int
	prepSamples [][]int
	filesStatic []int
	// files/grads/shardGrads/sampleLists are the per-round report
	// scratch, reused across rounds; shardGrads holds per-shard subslice
	// headers over grads' full-dimension rows.
	files       []int
	grads       [][]F
	shardGrads  [][]F
	sampleLists [][]int
}

// RunWorker connects to the PS at addr and participates in training
// until Shutdown, returning the final accuracy reported by the PS. If
// the connection breaks mid-run the worker automatically reconnects
// with its session token (bounded by ReconnectAttempts) and resumes at
// the next round boundary; an injected crash fault is terminal and
// returns ErrInjectedCrash. Canceling ctx aborts the dial or any
// blocked send/receive promptly (by closing the connection) and returns
// ctx.Err().
func RunWorker(ctx context.Context, addr string, cfg WorkerConfig) (float64, error) {
	if cfg.Behavior == "" {
		cfg.Behavior = BehaviorHonest
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	attempts := cfg.ReconnectAttempts
	if attempts == 0 {
		attempts = DefaultReconnectAttempts
	}
	st := &worker{cfg: cfg, token: cfg.ResumeToken}
	if cfg.Metrics != nil {
		st.ins = newWorkerInstruments(cfg.Metrics)
	}
	if cfg.Behavior == BehaviorALIE && cfg.AdvAddr == "" {
		return 0, fmt.Errorf("transport: worker %d: behavior %q requires the adversary sidecar (AdvAddr)", cfg.ID, cfg.Behavior)
	}
	if cfg.AdvAddr != "" {
		adv, err := advnet.Dial(ctx, cfg.AdvAddr, cfg.ID)
		if err != nil {
			return 0, err
		}
		defer adv.Close()
		st.side = &sidecar{adv: adv, id: cfg.ID, sampledIter: -1}
		cfg.Logf("worker %d: adversary coalition %v, leader %d", cfg.ID, adv.MemberIDs(), adv.Leader())
	}
	failures := 0
	// One reused backoff timer for the whole reconnect loop: a bare
	// time.After here would leak a live timer per attempt whenever ctx
	// wins the select.
	var backoff *time.Timer
	defer func() {
		if backoff != nil {
			backoff.Stop()
		}
	}()
	for {
		final, err := st.runConn(ctx, addr)
		var re retryableErr
		switch {
		case err == nil:
			return final, nil
		case !errors.As(err, &re):
			return 0, err
		case ctx.Err() != nil:
			return 0, ctx.Err()
		case attempts >= 0 && failures >= attempts:
			return 0, fmt.Errorf("transport: worker %d: gave up after %d reconnect attempts: %w",
				cfg.ID, failures, re.err)
		}
		failures++
		st.ins.reconnecting()
		delay := defaultReconnectDelay << min(failures-1, 5)
		cfg.Logf("worker %d: connection lost (%v); reconnecting in %v (attempt %d)",
			cfg.ID, re.err, delay, failures)
		if backoff == nil {
			backoff = time.NewTimer(delay)
		} else {
			// Reset is only safe on a stopped or drained timer; the
			// ctx-cancel path below returns without draining, so stop
			// and drain defensively before rearming.
			if !backoff.Stop() {
				select {
				case <-backoff.C:
				default:
				}
			}
			backoff.Reset(delay)
		}
		select {
		case <-backoff.C:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

// retryableErr wraps connection-level failures that a reconnect can
// recover from (everything protocol-fatal — bad version, injected
// crash, unexpected messages — is returned unwrapped).
type retryableErr struct{ err error }

func (e retryableErr) Error() string { return e.err.Error() }
func (e retryableErr) Unwrap() error { return e.err }

// retryable marks err as recoverable by reconnecting.
func retryable(err error) error { return retryableErr{err: err} }

// runConn runs one connection's lifetime: dial, Hello/Welcome
// (resuming with the session token when st already has one), then
// rounds until Shutdown or a connection failure. On a successful
// session (Shutdown received) it returns the final accuracy.
func (st *worker) runConn(ctx context.Context, addr string) (float64, error) {
	cfg := st.cfg
	var dialer net.Dialer
	raw, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return 0, retryable(fmt.Errorf("transport: dial %s: %w", addr, ctxErr(ctx, err)))
	}
	conn := NewConn(raw)
	defer conn.Close()
	stop := closeOnCancel(ctx, conn)
	defer stop()

	resume := st.token != 0
	tiers := cfg.Tiers
	if tiers == 0 {
		tiers = wire.AllTiersMask
	}
	if _, err := conn.Send(Hello{
		WorkerID: cfg.ID,
		Version:  wire.ProtocolVersion,
		Token:    st.token,
		Resume:   resume,
		Tiers:    tiers,
		// The worker computes at either width; the server's Welcome
		// pins the connection's precision.
		Precisions: wire.AllPrecisionsMask,
	}); err != nil {
		return 0, retryable(ctxErr(ctx, err))
	}
	msg, err := conn.Recv()
	if err != nil {
		return 0, retryable(ctxErr(ctx, err))
	}
	if rej, ok := msg.(Reject); ok {
		st.ins.rejected()
		if rej.Code == RejectBlacklisted {
			return 0, fmt.Errorf("transport: worker %d: %s: %w", cfg.ID, rej.Reason, ErrBlacklisted)
		}
		return 0, fmt.Errorf("transport: worker %d rejected: %s", cfg.ID, rej.Reason)
	}
	welcome, ok := msg.(Welcome)
	if !ok {
		return 0, fmt.Errorf("transport: expected Welcome, got %T", msg)
	}
	if welcome.Version != wire.ProtocolVersion {
		return 0, fmt.Errorf("transport: server speaks protocol %d, want %d", welcome.Version, wire.ProtocolVersion)
	}
	if !welcome.Uplink.Valid() {
		return 0, fmt.Errorf("transport: server negotiated unknown uplink tier %d", welcome.Uplink)
	}
	if tiers&welcome.Uplink.Mask() == 0 {
		return 0, fmt.Errorf("transport: server negotiated uplink tier %s outside the offered mask %#x",
			welcome.Uplink, tiers)
	}
	if !welcome.Precision.Valid() {
		return 0, fmt.Errorf("transport: server negotiated unknown precision %d", welcome.Precision)
	}
	if welcome.Precision != wire.PrecisionF64 && st.side != nil {
		return 0, fmt.Errorf("transport: worker %d: the adversary sidecar runs at f64 only, server runs %s",
			cfg.ID, welcome.Precision)
	}
	st.token = welcome.Token
	st.ins.tierNegotiated(int32(welcome.Uplink))
	if st.rounds == nil {
		// First successful handshake: build the deterministic local
		// state from the Spec — or adopt the process-shared copy — at
		// the precision the server pinned. Rejoins keep it (same Spec,
		// same run).
		if err := welcome.Spec.Validate(); err != nil {
			return 0, err
		}
		st.spec = welcome.Spec
		switch welcome.Precision {
		case wire.PrecisionF32:
			st.rounds, err = newWorkerState[float32](st)
		default:
			st.rounds, err = newWorkerState[float64](st)
		}
		if err != nil {
			return 0, err
		}
	}
	// The session token is logged on every (re)join — the server
	// rotates it per handshake, so a restarted process must present the
	// latest one (byzworker -resume-token).
	if resume {
		cfg.Logf("worker %d: rejoined (%s, %s; session token %#x)", cfg.ID, st.spec.Scheme, welcome.Precision, st.token)
	} else {
		cfg.Logf("worker %d: joined (%s, %d rounds, %s; session token %#x)",
			cfg.ID, st.spec.Scheme, st.spec.Rounds, welcome.Precision, st.token)
	}
	return st.rounds.serve(ctx, conn, &welcome)
}

// newWorkerState builds the width-F round state from the worker's Spec.
func newWorkerState[F linalg.Float](w *worker) (*workerState[F], error) {
	st := &workerState[F]{worker: w, lastApplied: -1}
	var (
		mdl   model.Model
		train *data.Dataset
		err   error
	)
	if sh := w.cfg.Shared; sh != nil {
		w.flt, w.asn = sh.flt, sh.asn
		mdl, train = sh.mdl, sh.train
		if st.train, err = sharedBound[F](sh); err != nil {
			return nil, err
		}
	} else {
		if mdl, err = w.spec.BuildModel(); err != nil {
			return nil, err
		}
		if train, _, err = w.spec.BuildData(); err != nil {
			return nil, err
		}
		if st.train, err = model.Bind[F](mdl, train); err != nil {
			return nil, err
		}
		if w.flt, err = w.spec.BuildFault(); err != nil {
			return nil, err
		}
	}
	// The sidecar (admitted at f64 only) replays the batch stream on the
	// same float64 model and training set.
	if w.side != nil {
		w.side.mdl, w.side.train = mdl, train
	}
	st.params = make([]F, st.train.Model().NumParams())
	return st, nil
}

// serve adopts one handshaken connection's negotiated plane and serves
// its rounds until Shutdown or a connection failure.
func (st *workerState[F]) serve(ctx context.Context, conn *Conn, welcome *Welcome) (float64, error) {
	cfg := st.cfg
	shards := welcome.Shards
	if shards == 0 {
		shards = 1
	}
	if shards < 1 || shards > 64 {
		return 0, fmt.Errorf("transport: server announced %d shards, want 1..64", shards)
	}
	if st.shards != 0 && shards != st.shards {
		return 0, fmt.Errorf("transport: server changed shard count %d → %d across rejoin", st.shards, shards)
	}
	if st.shards == 0 {
		st.shards = shards
		st.ranges = make([][2]int, shards)
		dim := len(st.params)
		for s := range st.ranges {
			st.ranges[s][0], st.ranges[s][1] = wire.ShardRange(dim, shards, s)
		}
		st.frames = make([][]byte, shards)
		st.reps = make([]GradientReport, shards)
		st.msgs = make([]Message, shards)
	}
	// The tier is per connection — a rejoin may renegotiate — and every
	// tier is stateless, so adopting the new Welcome's tier is always
	// safe.
	st.enc.Tier = welcome.Uplink
	st.pipeline = welcome.Pipeline
	// Any prep received on a previous connection died with it: the
	// server forgets prep state on eviction and serves this connection
	// the self-contained Files path until its next prep lands.
	st.prepIter = -1
	if st.pipeline && st.asn == nil {
		var err error
		if st.asn, err = st.spec.BuildAssignment(); err != nil {
			return 0, err
		}
	}
	if st.pipeline && st.filesStatic == nil {
		st.filesStatic = st.asn.WorkerFiles(cfg.ID)
	}
	// A (re)connected worker holds no acknowledged vector: the server
	// sends a full broadcast first, so stale params are never patched.
	st.lastApplied = -1

	// One reused fault-delay timer for the connection's lifetime: a bare
	// time.After per delayed round would leak a live timer whenever ctx
	// wins the select.
	var delayTimer *time.Timer
	defer func() {
		if delayTimer != nil {
			delayTimer.Stop()
		}
	}()
	for {
		msg, err := conn.Recv()
		if err != nil {
			return 0, retryable(fmt.Errorf("transport: worker %d recv: %w", cfg.ID, ctxErr(ctx, err)))
		}
		switch m := msg.(type) {
		case RoundPrep:
			// The next round's sample lists, streamed while the current
			// round's tail still runs on the PS. Decoded slices are
			// fresh per Recv, so retaining them is safe.
			st.prepIter = m.Iteration
			st.prepSamples = m.Samples
		case RoundStart:
			st.ins.roundStarted(m.Iteration)
			files, samples, err := st.roundWork(&m)
			if err != nil {
				return 0, err
			}
			if err := st.applyParams(&m); err != nil {
				// A delta against a base this worker does not hold means
				// the broadcast state diverged; reconnecting fetches a
				// full vector.
				return 0, retryable(err)
			}
			// Self-injected faults: the Spec's fault model decides per
			// round whether this worker crashes, delays, or skips —
			// exercised against the server's real deadline and quorum
			// handling, not simulated on the PS side.
			d := st.flt.Plan(m.Iteration, cfg.ID)
			if d.Crash {
				cfg.Logf("worker %d: injected crash at round %d", cfg.ID, m.Iteration)
				return 0, fmt.Errorf("worker %d round %d: %w", cfg.ID, m.Iteration, ErrInjectedCrash)
			}
			if d.Delay > 0 {
				if delayTimer == nil {
					delayTimer = time.NewTimer(d.Delay)
				} else {
					if !delayTimer.Stop() {
						select {
						case <-delayTimer.C:
						default:
						}
					}
					delayTimer.Reset(d.Delay)
				}
				select {
				case <-delayTimer.C:
				case <-ctx.Done():
					return 0, ctx.Err()
				}
			}
			if d.Skip {
				cfg.Logf("worker %d: injected skip at round %d", cfg.ID, m.Iteration)
				// A single empty frame stands for every shard of the
				// round.
				if _, err := conn.Send(GradientReport{WorkerID: cfg.ID, Iteration: m.Iteration}); err != nil {
					return 0, retryable(ctxErr(ctx, err))
				}
				st.ins.skipSent()
				continue
			}
			computeStart := time.Now()
			msgs, err := st.computeReport(m.Iteration, files, samples)
			if err != nil {
				return 0, err
			}
			st.ins.computeObserved(time.Since(computeStart).Seconds())
			if _, err := conn.SendMany(msgs...); err != nil {
				return 0, retryable(ctxErr(ctx, err))
			}
			st.ins.reportSent(msgs)
		case Shutdown:
			cfg.Logf("worker %d: shutdown, final accuracy %.4f", cfg.ID, m.FinalAccuracy)
			return m.FinalAccuracy, nil
		case Reject:
			if m.Code == RejectBlacklisted {
				return 0, fmt.Errorf("transport: worker %d: %s: %w", cfg.ID, m.Reason, ErrBlacklisted)
			}
			return 0, fmt.Errorf("transport: worker %d rejected: %s", cfg.ID, m.Reason)
		default:
			return 0, fmt.Errorf("transport: worker %d: unexpected message %T", cfg.ID, msg)
		}
	}
}

// applyParams patches the worker's parameter vector with the round's
// broadcast frame: a full frame overwrites it, a delta frame XORs onto
// the base iteration it names — which must be exactly what this worker
// holds.
func (st *workerState[F]) applyParams(m *RoundStart) error {
	if len(m.ParamsFrame) == 0 {
		return fmt.Errorf("transport: round %d carried no parameter frame", m.Iteration)
	}
	// Validate the delta base before any bits are patched: a delta
	// against a vector this worker does not hold must not touch params.
	if int(m.ParamsFrame[0]) == wire.ParamsDelta && m.BaseIteration != st.lastApplied {
		return fmt.Errorf("transport: round %d delta against iteration %d, but worker holds %d",
			m.Iteration, m.BaseIteration, st.lastApplied)
	}
	_, consumed, err := wire.DecodeParams(m.ParamsFrame, st.params)
	if err != nil {
		return fmt.Errorf("transport: round %d params: %w", m.Iteration, err)
	}
	if consumed != len(m.ParamsFrame) {
		return fmt.Errorf("transport: round %d params frame has %d trailing bytes",
			m.Iteration, len(m.ParamsFrame)-consumed)
	}
	st.lastApplied = m.Iteration
	return nil
}

// roundWork resolves a RoundStart into the worker's file list (static
// slot order) and per-file sample lists. A self-contained round carries
// the Files map; a prep round carries neither file ids nor samples and
// must be preceded by its RoundPrep on this same connection — if that
// prep was lost the error is retryable, because the server serves a
// reconnected worker the self-contained path.
func (st *workerState[F]) roundWork(m *RoundStart) (files []int, samples [][]int, err error) {
	if len(m.Files) > 0 {
		files = st.files[:0]
		for v := range m.Files {
			files = append(files, v)
		}
		slices.Sort(files)
		st.files = files
		if cap(st.sampleLists) < len(files) {
			st.sampleLists = make([][]int, len(files))
		}
		samples = st.sampleLists[:len(files)]
		st.sampleLists = samples
		for i, v := range files {
			samples[i] = m.Files[v]
		}
		return files, samples, nil
	}
	if !st.pipeline {
		return nil, nil, fmt.Errorf("transport: worker %d: round %d carried no files outside pipeline mode",
			st.cfg.ID, m.Iteration)
	}
	if st.prepIter != m.Iteration {
		return nil, nil, retryable(fmt.Errorf("transport: worker %d: round %d started without its prep (have %d)",
			st.cfg.ID, m.Iteration, st.prepIter))
	}
	if len(st.prepSamples) != len(st.filesStatic) {
		return nil, nil, fmt.Errorf("transport: worker %d: round %d prep carried %d sample lists, want %d",
			st.cfg.ID, m.Iteration, len(st.prepSamples), len(st.filesStatic))
	}
	return st.filesStatic, st.prepSamples, nil
}

// computeReport produces the worker's (honest or Byzantine) gradients
// for one round, sliced into one report per shard, each encoded through
// its shard's uplink codec (raw or XOR-delta against the previous
// report, whichever is smaller). The returned messages alias the
// state's scratch and are valid until the next computeReport call.
func (st *workerState[F]) computeReport(iter int, files []int, samples [][]int) ([]Message, error) {
	cfg := st.cfg
	dim := len(st.params)
	if cap(st.grads) < len(files) {
		st.grads = make([][]F, len(files))
	}
	grads := st.grads[:len(files)]
	st.grads = grads
	// The ALIE payload is one vector per round shared by every file, so
	// it is crafted once — through the sidecar coalition — before the
	// per-file loop.
	var alie []float64
	if cfg.Behavior == BehaviorALIE {
		// The sidecar is float64-only (the handshake refuses it at any
		// other precision), so params is the float64 vector here.
		params, _ := any(st.params).([]float64)
		var err error
		if alie, err = st.side.payload(st.worker, iter, params); err != nil {
			return nil, err
		}
	}
	for i := range files {
		if cap(grads[i]) < dim {
			grads[i] = make([]F, dim)
		}
		g := grads[i][:dim]
		grads[i] = g
		clear(g)
		switch cfg.Behavior {
		case BehaviorHonest:
			st.train.SumGradient(st.params, samples[i], g)
		case BehaviorReversed, BehaviorSignFlip:
			st.train.SumGradient(st.params, samples[i], g)
			for i := range g {
				g[i] = -g[i]
			}
		case BehaviorConstant:
			val := cfg.ConstantValue
			if val == 0 {
				val = -1
			}
			for i := range g {
				g[i] = F(val)
			}
		case BehaviorZero:
			// zeros (crash-like)
		case BehaviorALIE:
			for i, v := range alie {
				g[i] = F(v)
			}
		default:
			return nil, fmt.Errorf("transport: unknown behavior %q", cfg.Behavior)
		}
	}
	if cap(st.shardGrads) < len(files) {
		st.shardGrads = make([][]F, len(files))
	}
	sg := st.shardGrads[:len(files)]
	st.shardGrads = sg
	for s := 0; s < st.shards; s++ {
		lo, hi := st.ranges[s][0], st.ranges[s][1]
		for i := range grads {
			sg[i] = grads[i][lo:hi]
		}
		frame, _, _, err := st.enc.Encode(st.frames[s][:0], cfg.ID, files, sg)
		if err != nil {
			return nil, err
		}
		st.frames[s] = frame
		st.reps[s] = GradientReport{WorkerID: cfg.ID, Iteration: iter, Shard: s, Frame: frame}
		st.msgs[s] = st.reps[s]
	}
	return st.msgs, nil
}

// sidecar is a coalition member's float64 adversary state: the hub
// connection, plus the leader's deterministic reconstruction of the
// batch stream — its own sampler fast-forwarded to the current round —
// and the moment and payload scratch every member shares.
type sidecar struct {
	adv *advnet.Client
	id  int
	// mdl and train are the worker's float64 model and training set
	// (newWorkerState).
	mdl         model.Model
	train       *data.Dataset
	params      []float64
	sampler     *data.BatchSampler
	sampledIter int
	fileParts   [][]int
	trueGrads   [][]float64
	muBuf       []float64
	sigmaBuf    []float64
	moments     wire.MomentFrame
	atkCtx      attack.Context
	atkScr      attack.Scratch
}

// payload crafts the round's ALIE vector through the sidecar coalition
// from the worker's current parameters. The z factor matches the
// in-process attack: ZMax over the cluster size (Spec.K, which the
// server pins to the assignment's K before Welcome) and the coalition
// size the share reports.
func (sc *sidecar) payload(w *worker, round int, params []float64) ([]float64, error) {
	sc.params = params
	sc.atkCtx = attack.Context{
		Round:             round,
		Dim:               len(params),
		Participants:      w.spec.K,
		ExpectedCorrupted: sc.adv.Members(),
	}
	craft, err := attack.BeginWith(attack.ALIE{ZOverride: w.cfg.ALIEZ}, &sc.atkCtx, &sc.atkScr, advCoordinator{sc, w})
	if err != nil {
		return nil, fmt.Errorf("transport: worker %d round %d: %w", sc.id, round, err)
	}
	return craft(0, nil), nil
}

// advCoordinator backs attack.Coordinator with the coalition hub: the
// leader reconstructs the round's gradient-population moments and
// publishes them; every member — leader included — then crafts from the
// hub's broadcast, so the whole coalition (and, by the bit-exact codec,
// the in-process omniscient attacker) agrees on the payload
// bit-for-bit.
type advCoordinator struct {
	sc *sidecar
	w  *worker
}

// RoundMoments implements attack.Coordinator.
func (c advCoordinator) RoundMoments(ctx *attack.Context) (attack.Moments, error) {
	sc := c.sc
	if sc.adv.IsLeader() {
		mu, sigma, err := sc.reconstructMoments(c.w, ctx.Round)
		if err != nil {
			return attack.Moments{}, err
		}
		sc.moments = wire.MomentFrame{Round: ctx.Round, Members: sc.adv.Members(), Mu: mu, Sigma: sigma}
		if err := sc.adv.Publish(&sc.moments); err != nil {
			return attack.Moments{}, err
		}
	}
	// Decoding the share back into sc.moments reuses its buffers; for
	// the leader those hold the just-published values, which the decoded
	// bits reproduce exactly.
	if err := sc.adv.AwaitShare(ctx.Round, &sc.moments); err != nil {
		return attack.Moments{}, err
	}
	return attack.Moments{
		Round:   sc.moments.Round,
		Members: sc.moments.Members,
		Mu:      sc.moments.Mu,
		Sigma:   sc.moments.Sigma,
	}, nil
}

// reconstructMoments is the coalition leader's omniscient
// reconstruction: everything the in-process attack oracle reads off the
// engine — the round's batch, its file partition, and every file's true
// gradient — is a deterministic function of the Spec, so the leader
// replays it locally (its own batch sampler fast-forwarded to round)
// and takes the population moments with the same accumulation order as
// attack.Loopback. sc.params must already reflect the round's
// broadcast, which the computeReport call order guarantees.
func (sc *sidecar) reconstructMoments(w *worker, round int) (mu, sigma []float64, err error) {
	if sc.sampler == nil {
		// w.asn may already exist — shared state or the pipeline path
		// builds it at handshake time.
		if w.asn == nil {
			if w.asn, err = w.spec.BuildAssignment(); err != nil {
				return nil, nil, err
			}
		}
		if sc.sampler, err = data.NewBatchSampler(sc.train.Len(), w.spec.BatchSize, w.spec.Seed); err != nil {
			return nil, nil, err
		}
		dim := sc.mdl.NumParams()
		flat := make([]float64, w.asn.F*dim)
		sc.trueGrads = make([][]float64, w.asn.F)
		for v := range sc.trueGrads {
			sc.trueGrads[v] = flat[v*dim : (v+1)*dim]
		}
		sc.muBuf = make([]float64, dim)
		sc.sigmaBuf = make([]float64, dim)
	}
	if round <= sc.sampledIter {
		return nil, nil, fmt.Errorf("transport: worker %d: moments for round %d requested after round %d",
			sc.id, round, sc.sampledIter)
	}
	// The sampler's stream is positional: skipped rounds (missed while
	// disconnected) still consume their batches so round r always sees
	// the engine's batch r.
	var batch []int
	for sc.sampledIter < round {
		batch = sc.sampler.Next()
		sc.sampledIter++
	}
	if sc.fileParts, err = data.PartitionFilesInto(batch, w.asn.F, sc.fileParts); err != nil {
		return nil, nil, err
	}
	for v, g := range sc.trueGrads {
		clear(g)
		sc.mdl.SumGradient(sc.params, sc.train, sc.fileParts[v], g)
	}
	mu = linalg.MeanVecInto(sc.muBuf, sc.trueGrads)
	sigma = linalg.StdVecInto(sc.sigmaBuf, mu, sc.trueGrads)
	return mu, sigma, nil
}
