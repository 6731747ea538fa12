package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestMetricListsMatchBenchmarkJSON pins the metric lists the JSON line
// carries to the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark reports %v", got, perLayer)
	}
}

func TestBlockP99(t *testing.T) {
	wall := make([]float64, 3000)
	for i := range wall {
		wall[i] = float64(i % 1000)
	}
	// One burst in the second block moves only that block's tail.
	for i := 1000; i < 1100; i++ {
		wall[i] = 1e6
	}
	if got := blockP99(wall); got < 989 || got > 990 {
		t.Errorf("blockP99 = %v, want the unperturbed blocks' p99 (~989)", got)
	}
}
