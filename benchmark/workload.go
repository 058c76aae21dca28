package main

import (
	"fmt"
	"math/rand"

	"respect"
)

// workload is one traffic mix and the server it runs against.
type workload struct {
	name string
	why  string
	// args are the respect-serve flags besides -addr (and, in a fleet,
	// -peers/-advertise).
	args []string
	// replicas is 1, or 2 for the fleet workload.
	replicas int
	// warmed is /v1/stats.warmed_schedules of a booted replica.
	warmed int64
	// class is the request class, whose cache counters the gate reads.
	class string
	// agent marks a server that loads the RL fixture (-agent).
	agent bool
	// backends overrides the class portfolio per request (nil keeps it).
	backends []string
	// pool builds the input from the seed.
	pool func(seed int64, o requestOpts) (*pool, error)
	// gate proves the measured window reached the layer the workload is
	// named for; it returns the observed share in its error.
	gate func(w *window) error
}

func (w *workload) opts(trace bool) requestOpts {
	return requestOpts{class: w.class, backends: w.backends, trace: trace}
}

// workloads returns the four workloads. Their names are fixed: later
// issues cite them.
func workloads() []*workload {
	return []*workload{
		{
			name:     "zoo_hit",
			why:      "14 zoo models, 3 of 4 requests by name and 1 inline, all cache hits: serve decode/encode and the solver cache read do the work, the backends none",
			args:     []string{"-cache", "512", "-warm", "zoo"},
			replicas: 1,
			warmed:   14,
			class:    "interactive",
			pool:     func(seed int64, o requestOpts) (*pool, error) { return zooPool(seed, 4, o) },
			gate:     gateZooHit,
		},
		{
			name:     "synth_miss",
			why:      "4096 unique 30-node synthetic DAGs inline on the batch class, 8x the cache: every request misses, races heur+exact+compiler, inserts and evicts",
			args:     []string{"-cache", "512", "-warm", "none", "-batch-budget", "250ms"},
			replicas: 1,
			class:    "batch",
			pool:     synthPool,
			gate:     gateSynthMiss,
		},
		{
			name:     "rl_infer",
			why:      "requests pinned to the rl backend (cache bypass) on zoo and synthetic graphs of 30-190 nodes: embed, ptrnet decode and post-processing do the work",
			args:     []string{"-warm", "none"},
			replicas: 1,
			class:    "batch",
			agent:    true,
			backends: []string{"rl"},
			pool:     rlPool,
			gate:     gateRLInfer,
		},
		{
			name:     "fleet_forward",
			why:      "two replicas, zoo by name, every request sent to the replica that does not own its key: one cluster hop plus the owner's cache hit",
			args:     []string{"-cache", "512", "-warm", "zoo"},
			replicas: 2,
			warmed:   14,
			class:    "interactive",
			pool:     func(seed int64, o requestOpts) (*pool, error) { return zooPool(seed, 0, o) },
			gate:     gateFleetForward,
		},
	}
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func gateZooHit(w *window) error {
	d := w.classDelta("interactive")
	share := ratio(float64(d.CacheHits), float64(d.CacheHits+d.CacheMisses))
	rejected := d.RejectedCapacity + d.RejectedQueueTimeout
	if share < 0.99 || rejected > 0 {
		return fmt.Errorf("cache hit share %.4f (want >= 0.99), %d rejections (want 0)", share, rejected)
	}
	return nil
}

func gateSynthMiss(w *window) error {
	d := w.classDelta("batch")
	share := ratio(float64(d.CacheHits), float64(d.CacheHits+d.CacheMisses))
	if share > 0.01 || d.CacheEvictions == 0 {
		return fmt.Errorf("cache hit share %.4f (want <= 0.01), %d evictions (want > 0)", share, d.CacheEvictions)
	}
	return nil
}

func gateRLInfer(w *window) error {
	ok := len(w.samples)
	if w.backends["rl"] != ok || w.cacheHits != 0 {
		return fmt.Errorf("rl answered %d of %d responses (want all), %d cache hits (want 0)", w.backends["rl"], ok, w.cacheHits)
	}
	return nil
}

// gateFleetForward allows one response in a hundred to miss the hop: a
// relay that loses a keep-alive connection, or a heartbeat that runs
// late, makes a replica answer one request itself (seen about once in
// 10^5 requests). Those are correct answers, counted by
// cluster.fallback_local, not failures of the workload.
func gateFleetForward(w *window) error {
	forwarded := 0
	for _, s := range w.samples {
		if s.forwarded {
			forwarded++
		}
	}
	ok := float64(len(w.samples))
	fwdShare, hitShare := float64(forwarded)/ok, float64(w.cacheHits)/ok
	if fwdShare < 0.99 || hitShare < 0.99 {
		return fmt.Errorf("forwarded share %.4f and cache hit share %.4f (want >= 0.99 each), %d local fallbacks",
			fwdShare, hitShare, w.fallbackLocal())
	}
	return nil
}

// rl_infer, like synth_miss, draws its synthetic graphs from a fixed
// population, serves them with a fixture trained from a fixed seed, and
// lets -seed order the rounds. The schedules an agent answers with, and so
// sim_inference_ips and peak_param_mb, depend on its weights and on the
// graphs: per-seed graphs and weights moved peak_param_mb by 1.3 % between
// seeds, more than its 1 % bound, with no change to the code.
const (
	rlSynthPerSize  = 16 // synthetic graphs each size slot rotates through
	rlSynthBaseSeed = 20230710
	rlFixtureSeed   = 1
)

// rlPool is the rl_infer input: rounds of five zoo models by name and
// three synthetic DAGs (30, 50, 100 nodes) inline. RL decode time grows
// with the square of the node count, so each slot is its own latency
// cluster; with these eight the median and the 95th percentile each fall
// inside a cluster, not on the edge between two (see README.md).
func rlPool(seed int64, o requestOpts) (*pool, error) {
	zoo, err := zooInstances([]string{"VGG16", "MobileNet", "Xception", "ResNet50", "ResNet50v2"})
	if err != nil {
		return nil, err
	}
	var synth [][]*instance
	for i, nodes := range []int{30, 50, 100} {
		insts, err := synthInstances(rlSynthPerSize, nodes, 4, rlSynthBaseSeed+int64(i))
		if err != nil {
			return nil, err
		}
		synth = append(synth, insts)
	}
	p, index := &pool{}, map[key]int{}
	// 48 rounds pair every synthetic graph with every stage count; the
	// seed orders the rounds and leaves each round whole.
	for _, round := range rand.New(rand.NewSource(seed)).Perm(len(stageCounts) * rlSynthPerSize) {
		stages := stageCounts[round%len(stageCounts)]
		for _, inst := range zoo {
			p.add(index, inst, byName, stages, o)
		}
		for _, insts := range synth {
			p.add(index, insts[round%rlSynthPerSize], inline, stages, o)
		}
	}
	return p, nil
}

// trainFixture trains the small RL agent rl_infer serves with and saves
// it to path. Six iterations make a weak scheduler but a full-size
// network, and decode time does not depend on the weights.
func trainFixture(path string) error {
	agent, err := respect.Train(respect.TrainConfig{Iterations: 6, Seed: rlFixtureSeed})
	if err != nil {
		return fmt.Errorf("train rl fixture: %w", err)
	}
	return agent.Save(path)
}
