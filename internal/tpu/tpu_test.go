package tpu

import (
	"testing"
	"time"

	"respect/internal/exact"
	"respect/internal/graph"
	"respect/internal/models"
	"respect/internal/sched"
)

func chain(t testing.TB, params []int64) *graph.Graph {
	t.Helper()
	g := graph.New("chain")
	for i, p := range params {
		g.AddNode(graph.Node{Name: "n", Kind: graph.OpConv, ParamBytes: p, OutBytes: 1000, MACs: p * 100})
		if i > 0 {
			g.AddEdge(i-1, i)
		}
	}
	return g.MustBuild()
}

func quietHW() HW {
	hw := Coral()
	hw.NoiseAmp = 0
	return hw
}

func TestRejectsInvalidSchedule(t *testing.T) {
	g := chain(t, []int64{1, 1})
	s := sched.Schedule{NumStages: 2, Stage: []int{1, 0}}
	if _, err := Simulate(g, s, quietHW()); err == nil {
		t.Fatal("dependency violation accepted")
	}
}

func TestRejectsSplitChildren(t *testing.T) {
	g := graph.New("split")
	g.AddNode(graph.Node{OutBytes: 1})
	g.AddNode(graph.Node{OutBytes: 1})
	g.AddNode(graph.Node{OutBytes: 1})
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.MustBuild()
	s := sched.Schedule{NumStages: 2, Stage: []int{0, 0, 1}}
	if _, err := Simulate(g, s, quietHW()); err == nil {
		t.Fatal("children split across stages accepted")
	}
}

func TestCacheOverflowStreams(t *testing.T) {
	hw := quietHW()
	// One stage holding 10 MiB: 2 MiB overflow streamed per inference.
	g := chain(t, []int64{10 << 20})
	s := sched.Schedule{NumStages: 1, Stage: []int{0}}
	rep, err := Simulate(g, s, hw)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stages[0].OverflowBytes != 2<<20 {
		t.Fatalf("overflow = %d", rep.Stages[0].OverflowBytes)
	}
	wantStream := hw.USBLatency + time.Duration(float64(2<<20)/hw.USBBandwidth*1e9)
	if d := rep.Stages[0].Stream - wantStream; d > time.Microsecond || d < -time.Microsecond {
		t.Fatalf("stream = %v, want %v", rep.Stages[0].Stream, wantStream)
	}
}

func TestNoOverflowNoStream(t *testing.T) {
	g := chain(t, []int64{1 << 20, 1 << 20})
	s := sched.Schedule{NumStages: 2, Stage: []int{0, 1}}
	rep, err := Simulate(g, s, quietHW())
	if err != nil {
		t.Fatal(err)
	}
	for k, st := range rep.Stages {
		if st.Stream != 0 {
			t.Fatalf("stage %d streams %v without overflow", k, st.Stream)
		}
	}
	if rep.Stages[0].OutBytes != 1000 || rep.Stages[1].InBytes != 1000 {
		t.Fatalf("activation accounting wrong: %+v", rep.Stages)
	}
}

func TestBottleneckAndTotals(t *testing.T) {
	g := chain(t, []int64{1 << 20, 12 << 20})
	s := sched.Schedule{NumStages: 2, Stage: []int{0, 1}}
	rep, err := Simulate(g, s, quietHW())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bottleneck != rep.Stages[1].Total {
		t.Fatal("bottleneck is not the slow stage")
	}
	if rep.Latency != rep.Stages[0].Total+rep.Stages[1].Total {
		t.Fatal("latency is not the stage sum")
	}
	if rep.TotalFor(1) != rep.Latency {
		t.Fatal("TotalFor(1) != fill latency")
	}
	want := rep.Latency + 9*rep.Bottleneck
	if rep.TotalFor(10) != want {
		t.Fatalf("TotalFor(10) = %v, want %v", rep.TotalFor(10), want)
	}
	if rep.TotalFor(0) != 0 {
		t.Fatal("TotalFor(0) != 0")
	}
	if rep.Throughput() <= 0 {
		t.Fatal("non-positive throughput")
	}
}

func TestBalancedBeatsImbalanced(t *testing.T) {
	// 16 MiB over two stages: balanced (8+8) fully cached; imbalanced
	// (12+4) streams 4 MiB every inference and must be slower.
	g := chain(t, []int64{4 << 20, 4 << 20, 4 << 20, 4 << 20})
	bal := sched.Schedule{NumStages: 2, Stage: []int{0, 0, 1, 1}}
	imb := sched.Schedule{NumStages: 2, Stage: []int{0, 0, 0, 1}}
	hw := quietHW()
	rb, err := Simulate(g, bal, hw)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := Simulate(g, imb, hw)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Bottleneck >= ri.Bottleneck {
		t.Fatalf("balanced %v not faster than imbalanced %v", rb.Bottleneck, ri.Bottleneck)
	}
}

func TestEnergyPositiveAndOrdered(t *testing.T) {
	g := chain(t, []int64{6 << 20, 6 << 20})
	oneStage := sched.Schedule{NumStages: 1, Stage: []int{0, 0}}
	rep, err := Simulate(g, oneStage, quietHW())
	if err != nil {
		t.Fatal(err)
	}
	if rep.EnergyPerInference <= 0 {
		t.Fatal("no energy modeled")
	}
}

func TestNoiseDeterministic(t *testing.T) {
	g := models.MustLoad("ResNet50")
	s := sched.PostProcess(g, sched.GreedyBalanced(g, 4))
	hw := Coral()
	a, err := Simulate(g, s, hw)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Simulate(g, s, hw)
	if a.Bottleneck != b.Bottleneck {
		t.Fatal("noise is nondeterministic")
	}
	hw.NoiseAmp = 0
	c, _ := Simulate(g, s, hw)
	ratio := float64(a.Bottleneck) / float64(c.Bottleneck)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("noise ratio %v outside ±10%%", ratio)
	}
}

func TestMemoryOptimalWinsOnRealModel(t *testing.T) {
	// ResNet152 at 6 stages: the exact memory-optimal schedule must beat
	// an equal-node-count split (which ignores memory) on simulated runtime.
	g := models.MustLoad("ResNet152")
	hw := quietHW()
	ex := sched.PostProcess(g, exact.Solve(g, 6, exact.Options{MaxStates: 5_000_000}).Schedule)
	even := sched.PostProcess(g, equalCountSchedule(g, 6))
	re, err := Simulate(g, ex, hw)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := Simulate(g, even, hw)
	if err != nil {
		t.Fatal(err)
	}
	if re.Bottleneck >= rh.Bottleneck {
		t.Fatalf("exact %v not faster than the equal-count split %v", re.Bottleneck, rh.Bottleneck)
	}
}

// equalCountSchedule splits g's topological order into numStages runs of
// equal node count: a schedule that ignores memory.
func equalCountSchedule(g *graph.Graph, numStages int) sched.Schedule {
	s := sched.NewSchedule(g.NumNodes(), numStages)
	for i, v := range g.TopoView() {
		s.Stage[v] = i * numStages / g.NumNodes()
	}
	return s
}

func TestRunBenchmarkAveraging(t *testing.T) {
	g := chain(t, []int64{1 << 20})
	s := sched.Schedule{NumStages: 1, Stage: []int{0}}
	mean, err := RunBenchmark(g, s, quietHW(), 10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := Simulate(g, s, quietHW())
	// Mean per-inference time approaches the bottleneck for long runs.
	if mean < rep.Bottleneck || mean > rep.Bottleneck+rep.Latency/1000+time.Microsecond {
		t.Fatalf("mean %v vs bottleneck %v", mean, rep.Bottleneck)
	}
}

func TestMultiConsumerTransferOncePerStage(t *testing.T) {
	// A producer feeding two consumers in one later stage uploads once and
	// that stage downloads once.
	g := graph.New("fanout")
	g.AddNode(graph.Node{OutBytes: 500})
	g.AddNode(graph.Node{OutBytes: 1})
	g.AddNode(graph.Node{OutBytes: 1})
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.MustBuild()
	s := sched.Schedule{NumStages: 2, Stage: []int{0, 1, 1}}
	rep, err := Simulate(g, s, quietHW())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stages[0].OutBytes != 500 || rep.Stages[1].InBytes != 500 {
		t.Fatalf("fanout accounting: %+v", rep.Stages)
	}
}

func TestPlatformVariants(t *testing.T) {
	// A streaming-bound schedule (12 MiB on one stage) must speed up on
	// faster fabrics: USB 3.0, then PCIe Gen2 x1, then an on-SoC link.
	g := chain(t, []int64{12 << 20})
	s := sched.Schedule{NumStages: 1, Stage: []int{0}}
	pcie, soc := Coral(), Coral()
	pcie.USBBandwidth, pcie.USBLatency = 800e6, 20*time.Microsecond
	soc.USBBandwidth, soc.USBLatency = 1.5e9, 5*time.Microsecond
	variants := []HW{Coral(), pcie, soc}
	var prev time.Duration
	for i, hw := range variants {
		hw.NoiseAmp = 0
		rep, err := Simulate(g, s, hw)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && rep.Stages[0].Stream >= prev {
			t.Fatalf("variant %d stream %v not faster than %v", i, rep.Stages[0].Stream, prev)
		}
		prev = rep.Stages[0].Stream
	}
}
