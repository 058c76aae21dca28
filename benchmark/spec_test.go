package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json and the program's
// own tables in step: same workloads, same metrics, same units, same
// bounds.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b := readBenchmarkJSON(t)
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their whys differ)", i, b.Workloads[i].Name, w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		j := b.EndToEnd[i]
		if j.Name != m.name || j.Unit != m.unit || j.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, j, m)
		}
		if j.Better != "lower" && j.Better != "higher" {
			t.Errorf("%s: better is %q", j.Name, j.Better)
		}
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, m := range perLayerMetrics {
		j := b.PerLayer[i]
		if j.Name != m.name || j.Unit != m.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, j, m)
		}
		if j.Better != "lower" && j.Better != "higher" {
			t.Errorf("%s: better is %q", j.Name, j.Better)
		}
	}
}

func metricNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func specNames(specs []metricSpec) []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	sort.Strings(names)
	return names
}

func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSmokeRunEmitsExactlyTheSpec runs every workload for two seconds,
// untraced and traced, against the real binary and checks that each run
// emits every metric of the spec and nothing else, with no failed request
// and every validity gate passing.
func TestSmokeRunEmitsExactlyTheSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots respect-serve; slow under -short")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(root, 1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	e.warmUp = time.Second
	t.Cleanup(killAllChildren)
	for _, w := range workloads() {
		res, err := e.runEndToEnd(w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.failed != 0 {
			t.Errorf("%s: %d of %d requests failed", w.name, res.failed, res.attempted)
		}
		if got, want := metricNames(res.metrics), specNames(endToEndMetrics); !sameNames(got, want) {
			t.Errorf("%s emitted %v, want %v", w.name, got, want)
		}
		for name, v := range res.metrics {
			if v <= 0 {
				t.Errorf("%s: end-to-end metric %s reads %v; it must never be 0", w.name, name, v)
			}
		}
		traced, err := e.runTraced(w)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if got, want := metricNames(traced.metrics), specNames(perLayerMetrics); !sameNames(got, want) {
			t.Errorf("%s traced emitted %v, want %v", w.name, got, want)
		}
	}
}
