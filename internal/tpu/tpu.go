// Package tpu is a cycle-approximate simulator of the paper's evaluation
// platform: a host-driven pipeline of Coral Edge TPUs connected over USB
// 3.0 (Figure 2). It stands in for the physical testbed, which this
// reproduction does not have.
//
// The mechanisms that differentiate schedules on real silicon are modeled
// directly:
//
//   - each stage owns an 8 MiB on-chip parameter cache; parameters beyond
//     it are re-streamed from the host over USB on every inference
//     (the Edge TPU is DRAM-less — this is the dominant penalty the
//     memory-aware schedulers optimize),
//   - systolic-array compute time from per-op MAC counts plus per-op
//     dispatch overhead,
//   - inter-stage activation transfers through the host (device → host →
//     device, one hop each way),
//   - pipelined steady-state throughput set by the bottleneck stage, and
//   - a deterministic "miscorrelation" perturbation reproducing the
//     paper's observation that high-level cost models do not perfectly
//     track closed-source silicon (§IV-A).
package tpu

import (
	"fmt"
	"hash/fnv"
	"time"

	"respect/internal/graph"
	"respect/internal/sched"
)

// HW describes the hardware platform.
type HW struct {
	// MACRate is int8 multiply-accumulates per second (Coral: 4 TOPS
	// peak ⇒ 2e12 MAC/s).
	MACRate float64
	// CacheBytes is the on-chip parameter cache per TPU (Coral: 8 MiB).
	CacheBytes int64
	// USBBandwidth is effective host↔device bandwidth in bytes/s
	// (USB 3.0 bulk: ~320 MB/s in practice).
	USBBandwidth float64
	// USBLatency is the fixed per-transfer setup latency.
	USBLatency time.Duration
	// OpOverhead is the per-op dispatch cost on the device.
	OpOverhead time.Duration
	// ActiveWatts and IdleWatts drive the energy model.
	ActiveWatts float64
	IdleWatts   float64
	// USBJoulesPerByte is transfer energy.
	USBJoulesPerByte float64
	// NoiseAmp is the amplitude of the deterministic model-vs-silicon
	// miscorrelation (fraction of stage latency; 0 disables).
	NoiseAmp float64
}

// Coral returns the default Coral Edge TPU pipeline platform.
func Coral() HW {
	return HW{
		MACRate:          2e12,
		CacheBytes:       8 << 20,
		USBBandwidth:     320e6,
		USBLatency:       250 * time.Microsecond,
		OpOverhead:       800 * time.Nanosecond,
		ActiveWatts:      2.0,
		IdleWatts:        0.5,
		USBJoulesPerByte: 5e-9,
		NoiseAmp:         0.04,
	}
}

// StageReport is the per-stage latency breakdown for one inference.
type StageReport struct {
	// ParamBytes is the stage's parameter footprint.
	ParamBytes int64
	// OverflowBytes is the portion above the cache, streamed per inference.
	OverflowBytes int64
	// InBytes is activation data received from the host.
	InBytes int64
	// OutBytes is activation data sent to the host.
	OutBytes int64
	// Compute, Stream, Transfer, Total are the latency components.
	Compute  time.Duration
	Stream   time.Duration
	Transfer time.Duration
	Total    time.Duration
}

// Report is the simulation outcome for a schedule.
type Report struct {
	Stages []StageReport
	// Latency is one inference end to end through the pipe (fill time).
	Latency time.Duration
	// Bottleneck is the slowest stage; steady-state inter-arrival time.
	Bottleneck time.Duration
	// EnergyPerInference is the modeled energy in joules.
	EnergyPerInference float64
}

// Throughput returns steady-state inferences per second.
func (r Report) Throughput() float64 {
	if r.Bottleneck <= 0 {
		return 0
	}
	return float64(time.Second) / float64(r.Bottleneck)
}

// TotalFor returns the modeled wall-clock for n pipelined inferences:
// pipe fill plus (n−1) bottleneck periods.
func (r Report) TotalFor(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return r.Latency + time.Duration(n-1)*r.Bottleneck
}

// Simulate runs the cost model for schedule s of graph g on hw. The
// schedule must be valid and deployment-ready (post-processed): both
// monotonicity and the children-same-stage hardware rule are enforced.
func Simulate(g *graph.Graph, s sched.Schedule, hw HW) (Report, error) {
	if err := s.Validate(g); err != nil {
		return Report{}, fmt.Errorf("tpu: %w", err)
	}
	if !s.SameStageChildrenOK(g) {
		return Report{}, fmt.Errorf("tpu: schedule violates the children-same-stage hardware constraint; run sched.PostProcess first")
	}

	n := s.NumStages
	rep := Report{Stages: make([]StageReport, n)}
	for v := 0; v < g.NumNodes(); v++ {
		st := &rep.Stages[s.Stage[v]]
		node := g.Node(v)
		st.ParamBytes += node.ParamBytes
		st.Compute += time.Duration(float64(node.MACs)/hw.MACRate*1e9) * time.Nanosecond
		st.Compute += hw.OpOverhead

		// Activations crossing stage boundaries hop through the host:
		// producer pays an upload, every consuming stage pays a download.
		consumers := map[int]bool{}
		for _, w := range g.Succ(v) {
			if s.Stage[w] != s.Stage[v] {
				consumers[s.Stage[w]] = true
			}
		}
		if len(consumers) > 0 {
			st.OutBytes += node.OutBytes
			for c := range consumers {
				rep.Stages[c].InBytes += node.OutBytes
			}
		}
	}

	xfer := func(bytes int64) time.Duration {
		if bytes == 0 {
			return 0
		}
		return hw.USBLatency + time.Duration(float64(bytes)/hw.USBBandwidth*1e9)*time.Nanosecond
	}

	var energy float64
	for k := range rep.Stages {
		st := &rep.Stages[k]
		if st.ParamBytes > hw.CacheBytes {
			st.OverflowBytes = st.ParamBytes - hw.CacheBytes
		}
		st.Stream = xfer(st.OverflowBytes)
		st.Transfer = xfer(st.InBytes) + xfer(st.OutBytes)
		st.Total = st.Compute + st.Stream + st.Transfer

		// Deterministic miscorrelation: the closed-source compiler backend
		// and cache behaviour perturb real latencies away from any
		// high-level model; hash stage composition into a stable ±NoiseAmp
		// factor so comparisons are reproducible run to run.
		if hw.NoiseAmp > 0 {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s|%d|%d|%d", g.Name, k, st.ParamBytes, st.InBytes)
			u := float64(h.Sum64()%10007)/10007*2 - 1 // [-1, 1)
			st.Total = time.Duration(float64(st.Total) * (1 + hw.NoiseAmp*u))
		}

		rep.Latency += st.Total
		if st.Total > rep.Bottleneck {
			rep.Bottleneck = st.Total
		}
		energy += st.Compute.Seconds() * hw.ActiveWatts
		energy += float64(st.OverflowBytes+st.InBytes+st.OutBytes) * hw.USBJoulesPerByte
	}
	// Idle energy: stages wait for the bottleneck period each inference.
	for k := range rep.Stages {
		idle := rep.Bottleneck - rep.Stages[k].Total
		if idle > 0 {
			energy += idle.Seconds() * hw.IdleWatts
		}
	}
	rep.EnergyPerInference = energy
	return rep, nil
}

// RunBenchmark mirrors the paper's measurement protocol: rounds × perRound
// inferences, returning the mean per-inference latency.
func RunBenchmark(g *graph.Graph, s sched.Schedule, hw HW, rounds, perRound int) (time.Duration, error) {
	rep, err := Simulate(g, s, hw)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for r := 0; r < rounds; r++ {
		total += rep.TotalFor(perRound)
	}
	return total / time.Duration(rounds*perRound), nil
}
