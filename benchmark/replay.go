package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"byzshield/internal/assign"
	"byzshield/internal/attack"
	"byzshield/internal/cluster"
	"byzshield/internal/data"
	"byzshield/internal/model"
)

// recording is the pre-recorded gradient stream a replaySource feeds
// the parameter server: per-file honest gradient sums for a few rounds,
// and the Byzantine payload crafted against each of them.
type recording struct {
	honest  [][][]float64 // [round][file] gradient sum
	payload [][]float64   // [round] ALIE payload shared by every Byzantine replica
	byz     []bool        // [worker] Byzantine
}

// record computes the recording once: rounds batches drawn from train,
// each file's gradient sum taken with model.SumGradient at the initial
// parameters, and the attack's payload crafted through attack.Begin
// from the same omniscient view the in-process engine gives it.
func record(asn *assign.Assignment, mdl model.Model, train *data.Dataset, batch, rounds int, atk attack.Attack, byz []int, seed int64) (*recording, error) {
	sampler, err := data.NewBatchSampler(train.Len(), batch, seed)
	if err != nil {
		return nil, err
	}
	params := model.InitParams(mdl, seed)
	rec := &recording{byz: make([]bool, asn.K)}
	for _, u := range byz {
		rec.byz[u] = true
	}
	var scratch attack.Scratch
	for t := 0; t < rounds; t++ {
		files, err := data.PartitionFiles(sampler.Next(), asn.F)
		if err != nil {
			return nil, err
		}
		sums := make([][]float64, asn.F)
		for v := range sums {
			sums[v] = make([]float64, mdl.NumParams())
			mdl.SumGradient(params, train, files[v], sums[v])
		}
		ctx := attack.Context{
			Round:             t,
			Dim:               mdl.NumParams(),
			FileGradients:     sums,
			Participants:      asn.K,
			ExpectedCorrupted: len(byz),
			FileSize:          float64(batch) / float64(asn.F),
			Rng:               rand.New(rand.NewSource(seed + int64(t))),
		}
		craft := attack.Begin(atk, &ctx, &scratch)
		rec.honest = append(rec.honest, sums)
		rec.payload = append(rec.payload, append([]float64(nil), craft(0, sums[0])...))
	}
	return rec, nil
}

// replaySource is a cluster.GradientSource that replays a recording:
// round t delivers recorded round t mod len(honest). Honest workers'
// replicas are copied into the engine's arena buffers, as bytes off a
// wire would land; Byzantine workers deliver the crafted payload. The
// parameter server's round — vote, aggregate, step — then runs on real
// gradient data with no model on the critical path.
type replaySource struct {
	rec *recording
	// copyTime is the wall time of the last Collect (the benchmark's own
	// replay cost, reported as replay.collect_ms).
	copyTime time.Duration
}

// Collect implements cluster.GradientSource.
func (s *replaySource) Collect(_ context.Context, rd *cluster.Round) (cluster.CollectStats, error) {
	start := time.Now()
	t := rd.Iteration() % len(s.rec.honest)
	sums, payload := s.rec.honest[t], s.rec.payload[t]
	for u := 0; u < rd.Workers(); u++ {
		for j, v := range rd.WorkerFiles(u) {
			if s.rec.byz[u] {
				if err := rd.Deliver(u, j, payload); err != nil {
					return cluster.CollectStats{}, err
				}
				continue
			}
			buf := rd.Buffer(u, j)
			if len(buf) != len(sums[v]) {
				return cluster.CollectStats{}, fmt.Errorf("replay: dim %d, recorded %d", len(buf), len(sums[v]))
			}
			copy(buf, sums[v])
		}
	}
	s.copyTime = time.Since(start)
	return cluster.CollectStats{Communication: s.copyTime}, nil
}

// voteSets returns, for recorded round t, every file's replica set in
// the order the engine votes it (the file's workers, ascending).
func (r *recording) voteSets(asn *assign.Assignment, t int) [][][]float64 {
	sets := make([][][]float64, asn.F)
	for v := range sets {
		for _, u := range asn.FileWorkers(v) {
			if r.byz[u] {
				sets[v] = append(sets[v], r.payload[t])
			} else {
				sets[v] = append(sets[v], r.honest[t][v])
			}
		}
	}
	return sets
}
