package pipeline

import (
	"math"
	"testing"
	"time"

	"respect/internal/graph"
	"respect/internal/models"
	"respect/internal/sched"
	"respect/internal/tpu"
)

func quietHW() tpu.HW {
	hw := tpu.Coral()
	hw.NoiseAmp = 0
	return hw
}

func testSetup(t testing.TB, name string, stages int) (*graph.Graph, sched.Schedule) {
	t.Helper()
	g := models.MustLoad(name)
	return g, sched.PostProcess(g, sched.GreedyBalanced(g, stages))
}

func TestRunMatchesAnalyticSteadyState(t *testing.T) {
	g, s := testSetup(t, "ResNet50", 4)
	hw := quietHW()
	rep, err := tpu.Simulate(g, s, hw)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	res, err := Run(g, s, hw, Config{Inferences: n, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Event-driven makespan must equal fill + (n-1) * bottleneck for an
	// unblocked pipe (deep queues): the analytic TotalFor formula.
	want := rep.TotalFor(n)
	diff := math.Abs(float64(res.Makespan - want))
	if diff/float64(want) > 0.01 {
		t.Fatalf("event makespan %v vs analytic %v", res.Makespan, want)
	}
	if math.Abs(res.Throughput-rep.Throughput())/rep.Throughput() > 0.05 {
		t.Fatalf("throughput %v vs analytic %v", res.Throughput, rep.Throughput())
	}
}

func TestBottleneckStageSaturates(t *testing.T) {
	g, s := testSetup(t, "ResNet152", 4)
	hw := quietHW()
	rep, err := tpu.Simulate(g, s, hw)
	if err != nil {
		t.Fatal(err)
	}
	bottleneck := 0
	for k, st := range rep.Stages {
		if st.Total == rep.Bottleneck {
			bottleneck = k
		}
	}
	res, err := Run(g, s, hw, Config{Inferences: 400, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if u := res.Stages[bottleneck].Utilization; u < 0.95 {
		t.Fatalf("bottleneck stage %d utilization %.3f, want ~1", bottleneck, u)
	}
	for k, st := range res.Stages {
		if st.Utilization > res.Stages[bottleneck].Utilization+1e-9 {
			t.Fatalf("stage %d busier than the bottleneck", k)
		}
	}
}

func TestCompletionsMonotone(t *testing.T) {
	g, s := testSetup(t, "Xception", 5)
	res, err := Run(g, s, quietHW(), Config{Inferences: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completions) != 50 {
		t.Fatalf("%d completions", len(res.Completions))
	}
	for i := 1; i < len(res.Completions); i++ {
		if res.Completions[i] < res.Completions[i-1] {
			t.Fatal("completions not sorted")
		}
	}
	if res.MeanLatency <= 0 {
		t.Fatal("no latency")
	}
}

func TestShallowQueueCausesBlocking(t *testing.T) {
	// A fast stage feeding a slow stage must block with depth 1 but not
	// with a deep queue.
	g := graph.New("fastslow")
	g.AddNode(graph.Node{Name: "fast", ParamBytes: 1 << 10, OutBytes: 1 << 10, MACs: 1e6})
	g.AddNode(graph.Node{Name: "slow", ParamBytes: 12 << 20, OutBytes: 1 << 10, MACs: 5e9})
	g.AddEdge(0, 1)
	g.MustBuild()
	s := sched.Schedule{NumStages: 2, Stage: []int{0, 1}}
	hw := quietHW()

	shallow, err := Run(g, s, hw, Config{Inferences: 100, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if shallow.Stages[0].Blocked != 0 {
		t.Fatal("blocked accounted on the wrong side")
	}
	if shallow.Stages[1].Blocked <= 0 {
		t.Fatal("no queueing delay at the slow stage with depth 1")
	}
	// Throughput is bottleneck-bound either way.
	rep, _ := tpu.Simulate(g, s, hw)
	if math.Abs(shallow.Throughput-rep.Throughput())/rep.Throughput() > 0.05 {
		t.Fatalf("shallow throughput %v vs analytic %v", shallow.Throughput, rep.Throughput())
	}
}

func TestQueueOccupancyBounded(t *testing.T) {
	g, s := testSetup(t, "ResNet101", 6)
	const depth = 3
	res, err := Run(g, s, quietHW(), Config{Inferences: 200, QueueDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	for k, st := range res.Stages {
		if st.MaxQueue > depth+1 {
			t.Fatalf("stage %d queue reached %d with depth %d", k, st.MaxQueue, depth)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	g, s := testSetup(t, "Xception", 4)
	if _, err := Run(g, s, quietHW(), Config{Inferences: 0}); err == nil {
		t.Fatal("0 inferences accepted")
	}
	bad := sched.Schedule{NumStages: 2, Stage: make([]int, 3)}
	if _, err := Run(g, bad, quietHW(), Config{Inferences: 1}); err == nil {
		t.Fatal("mismatched schedule accepted")
	}
}

func TestSingleInference(t *testing.T) {
	g, s := testSetup(t, "Xception", 4)
	hw := quietHW()
	res, err := Run(g, s, hw, Config{Inferences: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := tpu.Simulate(g, s, hw)
	if res.Makespan != rep.Latency {
		t.Fatalf("single-inference makespan %v vs fill latency %v", res.Makespan, rep.Latency)
	}
	if res.MeanLatency != rep.Latency {
		t.Fatalf("latency %v vs %v", res.MeanLatency, rep.Latency)
	}
}

func TestBetterScheduleBetterThroughput(t *testing.T) {
	// The event executor must preserve the analytic ordering between a
	// memory-balanced schedule and a skewed one on a big model.
	g := models.MustLoad("ResNet152")
	hw := quietHW()
	good := sched.PostProcess(g, sched.DPBudget(g, 6))
	bad := sched.PostProcess(g, equalCountSchedule(g, 6))
	rg, err := Run(g, good, hw, Config{Inferences: 200, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(g, bad, hw, Config{Inferences: 200, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rg.Throughput <= rb.Throughput {
		t.Fatalf("balanced %v <= skewed %v inf/s", rg.Throughput, rb.Throughput)
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

func TestMakespanScalesLinearly(t *testing.T) {
	g, s := testSetup(t, "DenseNet121", 4)
	hw := quietHW()
	r100, err := Run(g, s, hw, Config{Inferences: 100, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	r200, err := Run(g, s, hw, Config{Inferences: 200, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	extra := r200.Makespan - r100.Makespan
	rep, _ := tpu.Simulate(g, s, hw)
	want := 100 * rep.Bottleneck
	if math.Abs(float64(extra-want))/float64(want) > 0.02 {
		t.Fatalf("marginal cost of 100 inferences %v, want %v", extra, want)
	}
	_ = time.Duration(0)
}
