// Command probes measures single layers in-process: it calls each layer's
// exported functions on the benchmark's own inputs, times them, and
// prints the per-layer metrics and the spans it recorded as one JSON
// object. The benchmark harness builds and runs it on traced runs only,
// so the end-to-end harness never compiles against the packages measured
// here.
//
// Rules for a probe: one probe per file, registered from that file's
// init, so a later benchmark issue can retire one by deleting its file;
// and it calls only exported functions that respect.go or a cmd/ binary
// already uses, so it measures code real callers reach.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// span mirrors the harness's span type; the two meet as JSON.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Request int     `json:"request"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	Count   int     `json:"count,omitempty"`
}

// probe is one registered measurement.
type probe struct {
	name string
	run  func(r *recorder) error
}

var probes []probe

// register adds a probe; each probe file calls it from init.
func register(name string, run func(r *recorder) error) {
	probes = append(probes, probe{name, run})
}

// recorder collects the metrics and spans of a probe run.
type recorder struct {
	begin   time.Time
	in      *inputs
	metrics map[string]float64
	spans   []span
	parent  int // span ID of the probe being run
}

func (r *recorder) sinceMS(t time.Time) float64 {
	return float64(t.Sub(r.begin)) / float64(time.Millisecond)
}

func (r *recorder) addSpan(parent int, name string, start, end time.Time, count int) int {
	id := len(r.spans) + 1
	if count == 1 {
		count = 0
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, StartMS: r.sinceMS(start), EndMS: r.sinceMS(end), Count: count})
	return id
}

// metric records a value under a per-layer metric name.
func (r *recorder) metric(name string, v float64) { r.metrics[name] = v }

// opBudget is how long timeOp keeps calling a fast operation.
const opBudget = 150 * time.Millisecond

// slowOp is the duration from which one call is measurement enough.
const slowOp = 100 * time.Millisecond

// timeOp measures fn's duration per call. A fast fn is called in batches
// of about a millisecond until opBudget is spent and the median batch is
// reported; one that takes milliseconds is called at least three times;
// one slower than slowOp is called once. Each batch is one span named
// after the operation.
func (r *recorder) timeOp(name string, fn func()) time.Duration {
	start := time.Now()
	fn() // warm caches and pools; also sizes the batches
	first := time.Since(start)
	r.addSpan(r.parent, name, start, start.Add(first), 1)
	if first >= slowOp {
		return first
	}
	batch := 1
	if first < time.Millisecond {
		batch = int(time.Millisecond/max(first, time.Nanosecond)) + 1
	}
	var perCall []float64
	for spent := time.Duration(0); len(perCall) < 3 || (spent < opBudget && len(perCall) < 200); {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		t1 := time.Now()
		r.addSpan(r.parent, name, t0, t1, batch)
		spent += t1.Sub(t0)
		perCall = append(perCall, float64(t1.Sub(t0))/float64(batch))
	}
	sort.Float64s(perCall)
	return time.Duration(perCall[len(perCall)/2])
}

// allocsPerOp counts heap allocations per call of fn, averaged over runs
// calls after one warm-up call.
func allocsPerOp(runs int, fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func main() {
	seed := flag.Int64("seed", 1, "seed of the synthetic probe inputs")
	flag.Parse()
	if err := run(*seed); err != nil {
		fmt.Fprintf(os.Stderr, "probes: %v\n", err)
		os.Exit(1)
	}
}

func run(seed int64) error {
	r := &recorder{begin: time.Now(), metrics: map[string]float64{}}
	var err error
	if r.in, err = newInputs(r, seed); err != nil {
		return err
	}
	sort.Slice(probes, func(i, j int) bool { return probes[i].name < probes[j].name })
	for _, p := range probes {
		start := time.Now()
		r.parent = r.addSpan(0, "probe."+p.name, start, start, 1)
		if err := p.run(r); err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		r.spans[r.parent-1].EndMS = r.sinceMS(time.Now())
	}
	return json.NewEncoder(os.Stdout).Encode(struct {
		Metrics map[string]float64 `json:"metrics"`
		Spans   []span             `json:"spans"`
	}{r.metrics, r.spans})
}
