package main

import (
	"time"

	"byzshield/internal/obs"
)

// traceRing holds every round of one traced window (the windows stay
// well below it: ~3k rounds at the fastest workload's pace).
const traceRing = 1 << 14

// addPhaseMetrics reads the program's own round tracer for the rounds
// of w and records the per-phase medians and the span coverage: the
// summed per-phase self times over the summed round wall times. The
// broadcast span is a child of collect, so collect's self time is
// collect minus broadcast and the phases sum without double counting.
func addPhaseMetrics(res *result, tr *obs.Tracer, w *window) {
	wallOf := make(map[int]time.Duration, len(w.wall))
	for i := range w.stats {
		wallOf[w.stats[i].Iteration] = w.wall[i]
	}
	var prep, bcast, wait, vote, agg, det []float64
	var covered, wall float64
	for _, rt := range tr.Snapshot(nil) {
		d, ok := wallOf[rt.Round]
		if !ok {
			continue
		}
		p := rt.PhaseNS
		prep = append(prep, float64(p[obs.PhasePrep])/1e6)
		bcast = append(bcast, float64(p[obs.PhaseBroadcast])/1e6)
		wait = append(wait, float64(p[obs.PhaseCollect]-p[obs.PhaseBroadcast])/1e6)
		vote = append(vote, float64(p[obs.PhaseVote])/1e6)
		agg = append(agg, float64(p[obs.PhaseAggregate])/1e6)
		det = append(det, float64(p[obs.PhaseDetect])/1e6)
		covered += float64(p[obs.PhasePrep] + p[obs.PhaseCollect] + p[obs.PhaseVote] + p[obs.PhaseAggregate] + p[obs.PhaseDetect])
		wall += float64(d)
	}
	res.metrics.set("cluster.prep_ms", quantile(prep, 0.5), "ms")
	res.metrics.set("vote.ms", quantile(vote, 0.5), "ms")
	res.metrics.set("aggregate.ms", quantile(agg, 0.5), "ms")
	res.metrics.set("detect.ms", quantile(det, 0.5), "ms")
	res.metrics.set("transport.broadcast_ms", quantile(bcast, 0.5), "ms")
	res.metrics.set("transport.collect_wait_ms", quantile(wait, 0.5), "ms")
	coverage := 0.0
	if wall > 0 {
		coverage = covered / wall
	}
	res.metrics.set("cluster.span_coverage", coverage, "fraction")
	res.expect("span_coverage", coverage >= 0.95 && len(vote) == len(w.wall),
		"phase self times cover %.1f%% of round wall time over %d/%d traced rounds (need >= 95%%)",
		100*coverage, len(vote), len(w.wall))
}
