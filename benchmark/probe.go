package main

import (
	"fmt"
	"math/rand"
	"time"

	"byzshield/internal/aggregate"
	"byzshield/internal/trainer"
	"byzshield/internal/vote"
	"byzshield/internal/wire"
)

// shape is the per-round work shape of a workload, for the timed calls
// the benchmark makes into single layers from outside the round loop.
type shape struct {
	dim      int // model parameter count
	files    int // f: files per round (vote winners fed to the rule)
	replicas int // r: replicas voted per file
	load     int // l: files per worker report
	shards   int // report frames per worker (1 when unsharded)
}

// perCall times fn and returns its median cost in nanoseconds per call
// over nine batches, each batch long enough (>= 3 ms) to swamp the
// clock's resolution.
func perCall(fn func()) float64 {
	fn() // warm caches and pooled scratch
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(start) >= 3*time.Millisecond {
			break
		}
		n *= 2
	}
	per := make([]float64, 9)
	for b := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(time.Since(start)) / float64(n)
	}
	return quantile(per, 0.5)
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// probeLayers times single calls into vote, aggregate, trainer and wire
// (the raw uplink tier) at the workload's shape and records the
// per-call costs. voteSets, when non-nil, are the replica sets to vote
// (one per file); otherwise every file votes r bit-identical honest
// replicas.
func probeLayers(res *result, sh shape, seed int64, voteSets [][][]float64) error {
	rng := rand.New(rand.NewSource(seed))
	grads := make([][]float64, sh.files)
	for v := range grads {
		grads[v] = randVec(rng, sh.dim)
	}
	if voteSets == nil {
		for v := 0; v < sh.files; v++ {
			set := make([][]float64, sh.replicas)
			for j := range set {
				set[j] = grads[v]
			}
			voteSets = append(voteSets, set)
		}
	}
	var err error
	keep := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	nsVote := perCall(func() {
		for _, set := range voteSets {
			_, e := vote.Majority(set)
			keep(e)
		}
	})
	res.metrics.set("vote.ns_per_file", nsVote/float64(len(voteSets)), "ns")

	out := make([]float64, sh.dim)
	nsAgg := perCall(func() { keep(aggregate.Median{}.AggregateChunk(grads, out, 0, sh.dim)) })
	res.metrics.set("aggregate.median_ns_per_coord", nsAgg/float64(sh.dim), "ns")

	opt, e := trainer.NewSGD(trainer.Schedule{Base: 1e-9}, 0.9, sh.dim)
	keep(e)
	params := append([]float64(nil), grads[0]...)
	nsSGD := perCall(func() { opt.Step(params, grads[1%len(grads)], 0) })
	res.metrics.set("trainer.sgd_ns_per_param", nsSGD/float64(sh.dim), "ns")

	// One worker report: l file rows, framed once per shard range.
	rows := make([][]float64, sh.load)
	for j := range rows {
		rows[j] = grads[j%len(grads)]
	}
	fileIDs := make([]int, sh.load)
	for j := range fileIDs {
		fileIDs[j] = j
	}
	enc := make([]wire.UplinkEncoder, sh.shards)
	dec := make([]wire.UplinkDecoder, sh.shards)
	frames := make([][]byte, sh.shards)
	shardRows := make([][][]float64, sh.shards)
	rx := make([]wire.GradFrame, sh.shards)
	for s := range enc {
		enc[s].Tier, dec[s].Tier = wire.TierRaw, wire.TierRaw
		lo, hi := wire.ShardRange(sh.dim, sh.shards, s)
		shardRows[s] = make([][]float64, sh.load)
		rx[s].Grads = make([][]float64, sh.load)
		for j := range rows {
			shardRows[s][j] = rows[j][lo:hi]
			rx[s].Grads[j] = make([]float64, hi-lo)
		}
	}
	encode := func() {
		for s := range enc {
			var e error
			frames[s], _, _, e = enc[s].Encode(frames[s][:0], 0, fileIDs, shardRows[s])
			keep(e)
		}
	}
	res.metrics.set("wire.uplink_encode_ns", perCall(encode), "ns")
	encode()
	res.metrics.set("wire.uplink_decode_ns", perCall(func() {
		for s := range dec {
			dec[s].Reset()
			_, _, e := dec[s].Decode(frames[s], &rx[s])
			keep(e)
		}
	}), "ns")

	// A delta broadcast: the parameters after one optimizer step
	// against the vector the workers hold.
	base := append([]float64(nil), params...)
	opt.Step(params, grads[0], 0)
	var buf []byte
	res.metrics.set("wire.params_encode_ns", perCall(func() {
		var e error
		buf, e = wire.AppendParamsDelta(buf[:0], base, params)
		keep(e)
	}), "ns")
	if err != nil {
		return fmt.Errorf("layer probe: %w", err)
	}
	return nil
}
