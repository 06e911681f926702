package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// deterministicCounters are the traced figures that depend on the inputs
// alone, never on the machine: the same seed must reproduce them exactly.
var deterministicCounters = []string{
	"sim.events",
	"topology.full_recomputes",
	"sched.calls",
	"placement.epoch",
	"placement.assign_ratio",
	"placement.journal_bytes",
	"obs.events",
	"sched.mean_jct_sim_s",
	"engine.steady_p99_jct_sim_s",
}

// traced runs one traced round of a workload at a seed.
func traced(t *testing.T, name string, seed int64) map[string]float64 {
	t.Helper()
	rep, err := workloads[name](runOpts{seed: seed, budget: 1}, true)
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s seed %d: correct=%v attempted=%d failed=%d", name, seed, rep.Correct, rep.Attempted, rep.Failed)
	}
	out := make(map[string]float64)
	for _, k := range deterministicCounters {
		out[k] = rep.Metrics[k].Value
	}
	return out
}

func TestDeterministicCounters(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			a, b, other := traced(t, name, 1), traced(t, name, 1), traced(t, name, 2)
			changed := false
			for _, k := range deterministicCounters {
				if a[k] != b[k] {
					t.Errorf("%s: seed 1 gave %v, then %v", k, a[k], b[k])
				}
				if a[k] != other[k] {
					changed = true
				}
			}
			if !changed {
				t.Errorf("seed 2 reproduced every counter of seed 1: %v", a)
			}
		})
	}
}

// TestBenchmarkManifest checks that BENCHMARK.json names only workloads
// perfbench has, and that every workload reports exactly the metrics it
// declares, with the same units.
func TestBenchmarkManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	for _, w := range manifest.Workloads {
		if !slices.Contains(workloadNames(), w.Name) {
			t.Errorf("manifest workload %q is not a perfbench workload", w.Name)
		}
	}
	for _, w := range workloadNames() {
		for _, tr := range []bool{false, true} {
			rep, err := workloads[w](runOpts{seed: 7, budget: 1}, tr)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, tr, err)
			}
			declared := manifest.EndToEnd
			if tr {
				declared = manifest.PerLayer
			}
			if len(rep.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: reports %d metrics, manifest declares %d", w, tr, len(rep.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := rep.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s reported as %+v (present %v), manifest unit %q", w, tr, d.Name, m, ok, d.Unit)
				}
				if !tr && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.Name, m.Value)
				}
			}
		}
	}
}
