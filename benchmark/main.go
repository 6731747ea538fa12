// Command byzshield-bench is the repository benchmark: it runs one named
// workload for a fixed wall-clock window, checks the program's outputs,
// prints every metric by name with its unit, and ends with one JSON
// result line. See README.md for the workloads and what each metric
// measures.
//
//	byzshield-bench --workload train-alie --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off; with --trace 1 it carries the per-layer metrics of
// a separate traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in insertion order for the human-readable
// listing; the JSON line is keyed by name.
type metricSet struct {
	names []string
	vals  map[string]metric
}

func (s *metricSet) set(name string, v float64, unit string) {
	if s.vals == nil {
		s.vals = map[string]metric{}
	}
	if _, ok := s.vals[name]; !ok {
		s.names = append(s.names, name)
	}
	s.vals[name] = metric{v, unit}
}

// check is one output-correctness assertion.
type check struct {
	name   string
	ok     bool
	detail string
}

// result is everything one workload run reports.
type result struct {
	// attempted and failed count worker reports: K per round, and a
	// report fails when it is missing from its round (late, evicted,
	// or in a round that errored).
	attempted, failed int64
	metrics           metricSet
	checks            []check
}

// endToEnd and perLayer are the metrics the JSON line carries with
// --trace 0 and --trace 1 (BENCHMARK.json declares the same lists).
// Everything else a run measures is only listed.
var (
	endToEnd = []string{"samples_per_s", "round_p50_ms", "test_accuracy", "setup_s", "peak_heap_mb"}
	perLayer = []string{
		"round_p99_ms", "failed_report_frac", "wire_bytes_per_round",
		"model.compute_ms",
		"vote.ms", "vote.ns_per_file", "vote.degraded_files", "vote.dropped_files", "vote.distorted_frac",
		"aggregate.ms", "aggregate.median_ns_per_coord",
		"trainer.sgd_ns_per_param",
		"detect.ms", "detect.flagged_per_round", "detect.blacklisted",
		"transport.broadcast_ms", "transport.collect_wait_ms",
		"transport.stale_frames", "transport.evictions", "transport.rejoins",
		"wire.uplink_bytes_per_round", "wire.uplink_raw_bytes_per_round", "wire.broadcast_bytes_per_round",
		"wire.uplink_encode_ns", "wire.uplink_decode_ns", "wire.params_encode_ns",
		"cluster.prep_ms", "cluster.span_coverage",
		"distort.search_ms",
		"replay.collect_ms",
		"obs.trace_overhead",
	}
)

func (r *result) expect(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

// options are the command-line knobs every workload sees.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*result, error){
	"train-alie":     runTrainALIE,
	"ps-replay-wide": runPSReplayWide,
	"tcp-f64":        runTCPF64,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Int("seconds", 10, "length of the timed window in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer run, 0 the untraced end-to-end run")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	res, err := run(options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *name, err)
		os.Exit(1)
	}
	os.Exit(report(res, *trace == 1))
}

// report prints the listing and the JSON result line and returns the
// exit code: 0 when every check passed, 1 otherwise.
func report(res *result, traced bool) int {
	correct := true
	for _, c := range res.checks {
		status := "ok"
		if !c.ok {
			status = "FAIL"
			correct = false
		}
		fmt.Printf("check %-28s %-4s %s\n", c.name, status, c.detail)
	}
	for _, n := range res.metrics.names {
		m := res.metrics.vals[n]
		fmt.Printf("metric %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	names := endToEnd
	if traced {
		names = perLayer
	}
	out := map[string]metric{}
	for _, n := range names {
		m, ok := res.metrics.vals[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "metric %s was not measured\n", n)
			return 1
		}
		out[n] = m
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, res.attempted, res.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}
