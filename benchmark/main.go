// Command benchmark is the repository's benchmark: it builds
// cmd/respect-serve from the working tree, boots it as a child process,
// drives it over loopback HTTP with a closed loop of two clients, checks
// every schedule it gets back and prints every metric by name with its
// unit. README.md in this directory says what each workload and metric is
// for; BENCHMARK.json at the repository root is the contract.
//
//	bash benchmark/run.sh                                   every workload, end to end
//	bash benchmark/run.sh -workload zoo_hit -seed 3         one workload; the last line is JSON
//	bash benchmark/run.sh -workload zoo_hit -trace 1        the per-layer metrics and trace file
//	bash benchmark/run.sh -selftest                         prove the metrics respond to their layer
//	bash benchmark/run.sh -repeat 2                         run everything twice and compare
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}

func main() {
	code := run(os.Args[1:])
	killAllChildren()
	os.Exit(code)
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run one workload (zoo_hit, synth_miss, rl_infer, fleet_forward); empty runs all four")
		seed         = fs.Int64("seed", 1, "seed every input pool is generated from")
		seconds      = fs.Int("seconds", 20, "length of the measured window")
		trace        = fs.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics instead of the end-to-end ones")
		selftest     = fs.Bool("selftest", false, "check from outside that the metrics respond to the layer each workload names")
		repeat       = fs.Int("repeat", 0, "run every workload this many times back to back and compare the end-to-end metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		logf("usage: -seconds must be at least 1, -trace 0 or 1, and there are no positional arguments")
		return 2
	}

	// An interrupt must not leave a server behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllChildren()
		os.Exit(130)
	}()

	begin := time.Now()
	root, err := os.Getwd()
	if err != nil {
		logf("%v", err)
		return 1
	}
	e, err := newEnv(root, *seed, time.Duration(*seconds)*time.Second)
	if err != nil {
		logf("%v", err)
		return 1
	}
	defer func() { logf("total wall time %.1fs", time.Since(begin).Seconds()) }()

	switch {
	case *selftest:
		err = e.selfTest()
	case *repeat > 0:
		err = e.repeatCheck(*repeat)
	default:
		ws := workloads()
		if *workloadName != "" {
			w, werr := workloadByName(*workloadName)
			if werr != nil {
				logf("%v", werr)
				return 2
			}
			ws = []*workload{w}
		}
		for _, w := range ws {
			var res *result
			if *trace == 1 {
				res, err = e.runTraced(w)
			} else {
				res, err = e.runEndToEnd(w)
			}
			if err != nil {
				break
			}
			report(res, *trace == 1)
		}
	}
	if err != nil {
		logf("FAILED: %v", err)
		return 1
	}
	return 0
}

// newEnv builds the server from the checkout at root and prepares the
// scratch directory.
func newEnv(root string, seed int64, seconds time.Duration) (*env, error) {
	if _, err := os.Stat(filepath.Join(root, "cmd", "respect-serve")); err != nil {
		return nil, fmt.Errorf("%s is not the repository root (no cmd/respect-serve): %w", root, err)
	}
	work := filepath.Join(root, ".bench_build")
	start := time.Now()
	bin, err := goBuild(root, "./cmd/respect-serve", work, "respect-serve")
	if err != nil {
		return nil, err
	}
	logf("built respect-serve in %.1fs", time.Since(start).Seconds())
	return &env{bin: bin, benchDir: filepath.Join(root, "benchmark"), workDir: work, seed: seed, seconds: seconds, warmUp: defaultWarmUp}, nil
}

// report prints a run's metrics by name with their units, then the one
// JSON line the benchmark contract reads.
func report(res *result, traced bool) {
	specs := endToEndMetrics
	if traced {
		specs = perLayerMetrics
	}
	type metricJSON struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricJSON{}}
	fmt.Printf("# %s: %d requests, %d failed, wall %.1fs\n", res.workload, res.attempted, res.failed, res.wall.Seconds())
	for _, m := range specs {
		v, ok := res.metrics[m.name]
		if !ok {
			panic("metric " + m.name + " was not measured") // a bug in this program
		}
		fmt.Printf("%-14s %-44s %14.6g %s\n", res.workload, m.name, v, m.unit)
		out.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
	}
	if len(res.metrics) != len(specs) {
		var extra []string
		for name := range res.metrics {
			if _, ok := out.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		panic(fmt.Sprintf("measured metrics missing from the spec: %v", extra))
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // a NaN or Inf metric: a bug in this program
	}
	fmt.Printf("%s\n", line)
}
