package main

import (
	"hash/fnv"
	"math"
	"runtime/metrics"
	"slices"
	"time"

	"byzshield/internal/cluster"
)

// window is the record of one closed-loop timed window: the wall time
// of every round, totals of the program's per-round statistics, and the
// peak live heap sampled after each round. A traced window also keeps
// every round's statistics, for per-phase medians.
//
// An untraced window's own memory does not grow with the rounds it
// times (the wall times fill a buffer allocated up front), so the live
// heap it samples does not depend on how fast the rounds ran.
type window struct {
	wall    []time.Duration
	tot     roundTotals
	stats   []cluster.RoundStats // traced windows only
	traced  bool
	elapsed time.Duration
	heap    heapPeak
}

// windowCap is the round capacity allocated up front for a window's
// wall times: 512 KiB, room for 30 s of 0.5 ms rounds.
const windowCap = 1 << 16

func newWindow(traced bool) *window {
	return &window{wall: make([]time.Duration, 0, windowCap), traced: traced}
}

// roundTotals sums the program's per-round statistics over a window.
type roundTotals struct {
	missing, degraded, dropped, flagged   int
	stale, evictions, rejoins             int
	newlyBlacklisted, blacklisted         int // blacklisted: cumulative after the last round
	minDistorted, maxDistorted, distorted int
	reportBytes, reportRawBytes, bcBytes  int64
}

// add records one timed round and samples the heap after it.
func (w *window) add(wall time.Duration, rs cluster.RoundStats) {
	t := &w.tot
	if len(w.wall) == 0 || rs.DistortedFiles < t.minDistorted {
		t.minDistorted = rs.DistortedFiles
	}
	if len(w.wall) == 0 || rs.DistortedFiles > t.maxDistorted {
		t.maxDistorted = rs.DistortedFiles
	}
	w.wall = append(w.wall, wall)
	t.missing += len(rs.MissingWorkers)
	t.distorted += rs.DistortedFiles
	t.degraded += rs.DegradedFiles
	t.dropped += rs.DroppedFiles
	t.flagged += rs.FlaggedWorkers
	t.stale += rs.StaleFrames
	t.evictions += rs.Evictions
	t.rejoins += rs.Rejoins
	t.newlyBlacklisted += len(rs.BlacklistedWorkers)
	t.blacklisted = rs.Blacklisted
	t.reportBytes += rs.Times.ReportBytes
	t.reportRawBytes += rs.Times.ReportRawBytes
	t.bcBytes += rs.Times.BroadcastBytes
	if w.traced {
		w.stats = append(w.stats, rs)
	}
	w.heap.observe()
}

// perRound is total ÷ the window's round count.
func (w *window) perRound(total float64) float64 {
	if len(w.wall) == 0 {
		return 0
	}
	return total / float64(len(w.wall))
}

// throughputBlocks is how many consecutive equal-round blocks the
// window is split into for samples_per_s.
const throughputBlocks = 10

// samplesPerSec is batch × rounds ÷ wall time, taken over each of
// throughputBlocks consecutive blocks of rounds and reported as the
// median block, so a burst of interference from outside the process
// moves one block rather than the whole figure.
func (w *window) samplesPerSec(batch int) float64 {
	n := len(w.wall)
	if n < throughputBlocks {
		return float64(batch*n) / w.elapsed.Seconds()
	}
	rates := make([]float64, throughputBlocks)
	for b := range rates {
		lo, hi := b*n/throughputBlocks, (b+1)*n/throughputBlocks
		var wall time.Duration
		for _, d := range w.wall[lo:hi] {
			wall += d
		}
		rates[b] = float64(batch*(hi-lo)) / wall.Seconds()
	}
	return quantile(rates, 0.5)
}

// medianOf returns the median of f over a traced window's rounds.
func (w *window) medianOf(f func(*cluster.RoundStats) float64) float64 {
	v := make([]float64, len(w.stats))
	for i := range w.stats {
		v[i] = f(&w.stats[i])
	}
	return quantile(v, 0.5)
}

// addEndToEnd records the end-to-end metrics every workload shares and
// the attempted/failed report counts.
func (w *window) addEndToEnd(res *result, batch, k int, setup time.Duration, acc float64) {
	wall := make([]float64, len(w.wall))
	for i, d := range w.wall {
		wall[i] = ms(d)
	}
	res.attempted = int64(k * len(w.wall))
	res.failed = int64(w.tot.missing)
	res.metrics.set("samples_per_s", w.samplesPerSec(batch), "1/s")
	res.metrics.set("samples_per_s_whole_window", float64(batch*len(w.wall))/w.elapsed.Seconds(), "1/s")
	res.metrics.set("round_p50_ms", quantile(wall, 0.50), "ms")
	res.metrics.set("round_p99_ms", blockP99(wall), "ms")
	res.metrics.set("round_p99_ms_whole_window", quantile(wall, 0.99), "ms")
	res.metrics.set("round_samples", float64(len(wall)), "count")
	res.metrics.set("test_accuracy", acc, "fraction")
	res.metrics.set("setup_s", setup.Seconds(), "s")
	res.metrics.set("peak_heap_mb", w.heap.mb(), "MB")
	res.metrics.set("failed_report_frac", float64(res.failed)/float64(res.attempted), "fraction")
}

// p99Block is the round count of one p99 block: ten rounds lie beyond
// each block's p99.
const p99Block = 1000

// blockP99 splits the rounds into consecutive blocks of p99Block (the
// last partial block joins the one before it) and returns the median of
// the blocks' p99s, so one burst of outside interference moves one
// block's tail rather than the reported one.
func blockP99(wall []float64) float64 {
	n := len(wall) / p99Block
	if n < 2 {
		return quantile(wall, 0.99)
	}
	tails := make([]float64, n)
	for b := range tails {
		hi := (b + 1) * p99Block
		if b == n-1 {
			hi = len(wall)
		}
		tails[b] = quantile(wall[b*p99Block:hi], 0.99)
	}
	return quantile(tails, 0.5)
}

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (0 for an empty slice). v is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// medianDuration returns the median of ds.
func medianDuration(ds []time.Duration) time.Duration {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d)
	}
	return time.Duration(quantile(v, 0.5))
}

// heapPeak tracks the largest live Go heap — the bytes of heap objects
// the last garbage collection found reachable — over its samples.
// Unlike the heap's momentary size, which includes garbage the collector
// has not reached yet, it does not depend on when the collections
// happened to run.
type heapPeak struct {
	sample [1]metrics.Sample
	peak   uint64
}

func (h *heapPeak) observe() {
	h.sample[0].Name = "/gc/heap/live:bytes"
	metrics.Read(h.sample[:])
	if v := h.sample[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

func (h *heapPeak) mb() float64 { return float64(h.peak) / (1 << 20) }

// hash64 fingerprints a parameter vector's exact bits.
func hash64(p []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range p {
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}
