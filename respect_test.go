package respect

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"respect/internal/ptrnet"
)

func quickAgent(t *testing.T) *Agent {
	t.Helper()
	a, err := Train(TrainConfig{Hidden: 16, NumNodes: 12, Degrees: []int{2}, Stages: 3,
		Iterations: 8, BatchSize: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestEndToEnd(t *testing.T) {
	a := quickAgent(t)
	g, err := LoadModel("ResNet50")
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(g, s, CoralHW())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput() <= 0 {
		t.Fatal("no throughput")
	}
	if _, err := MeasureInference(g, s, CoralHW()); err != nil {
		t.Fatal(err)
	}
}

func TestAgentSaveLoad(t *testing.T) {
	a := quickAgent(t)
	path := filepath.Join(t.TempDir(), "agent.gob")
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	b, err := LoadAgent(path)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := LoadModel("Xception")
	s1, err := a.Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := b.Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1.Stage {
		if s1.Stage[i] != s2.Stage[i] {
			t.Fatal("loaded agent schedules differently")
		}
	}
}

// TestExactVsCompilerFacade: ScheduleExact's optimum is over the deployable
// schedules, the space every backend's deployed schedule lives in, so it is
// itself deployable and neither the compiler's partition nor the DP
// heuristic's can beat it. (On ResNet50 at 4 stages heur deploys 10 % below
// the repaired optimum of all monotone schedules, which is what this
// returned before.)
func TestExactVsCompilerFacade(t *testing.T) {
	for _, name := range []string{"Xception", "ResNet50"} {
		g, _ := LoadModel(name)
		ex, cost, optimal := ScheduleExact(g, 4, 30*time.Second)
		if !optimal {
			t.Fatalf("exact truncated on %s/4", name)
		}
		if err := ex.Validate(g); err != nil {
			t.Fatal(err)
		}
		if !ex.SameStageChildrenOK(g) {
			t.Fatalf("%s: the exact schedule is not deployable", name)
		}
		if got := ex.Evaluate(g); got != cost {
			t.Fatalf("%s: reported cost %v, schedule evaluates to %v", name, cost, got)
		}
		if dep := PostProcess(g, ex); dep.Evaluate(g) != cost {
			t.Fatalf("%s: the deployment repair moved the exact schedule: %v -> %v", name, cost, dep.Evaluate(g))
		}
		for _, backend := range []string{"compiler", "heur"} {
			s, err := ScheduleWith(context.Background(), backend, g, 4)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(g); err != nil {
				t.Fatal(err)
			}
			if got := s.Evaluate(g); got.PeakParamBytes < cost.PeakParamBytes {
				t.Fatalf("%s: %s deploys at %v, below the proven optimum %v", name, backend, got, cost)
			}
		}
	}
}

func TestCompileFullFacade(t *testing.T) {
	g, _ := LoadModel("Xception")
	s, dur, err := CompileFull(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Fatal("no compile time")
	}
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestSyntheticSamplerFacade(t *testing.T) {
	gs, err := SampleSyntheticGraphs(5, 30, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 5 {
		t.Fatalf("%d graphs", len(gs))
	}
	for _, g := range gs {
		if g.NumNodes() != 30 || g.MaxInDegree() > 4 {
			t.Fatalf("bad sample: %+v", g.Stats())
		}
	}
	if _, err := SampleSyntheticGraphs(1, 0, 2, 1); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestCustomGraphFacade(t *testing.T) {
	g := NewGraph("custom")
	a := g.AddNode(Node{Name: "in"})
	b := g.AddNode(Node{Name: "conv", ParamBytes: 1 << 20, OutBytes: 1 << 16, MACs: 1 << 24})
	c := g.AddNode(Node{Name: "fc", ParamBytes: 2 << 20, OutBytes: 1000, MACs: 1 << 21})
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	s, cost, optimal := ScheduleExact(g, 2, time.Second)
	if !optimal || cost.PeakParamBytes != 2<<20 {
		t.Fatalf("exact on custom graph: %+v optimal=%v", cost, optimal)
	}
	rep, err := Simulate(g, PostProcess(g, s), CoralHW())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bottleneck <= 0 {
		t.Fatal("no bottleneck")
	}
}

func TestLoadModelErrors(t *testing.T) {
	if _, err := LoadModel("nope"); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := LoadAgent(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing agent accepted")
	}
	wide := filepath.Join(t.TempDir(), "wide.gob")
	if err := ptrnet.New(ptrnet.Config{InputDim: 9, Hidden: 8, Seed: 1}).SaveFile(wide); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAgent(wide); err == nil || !strings.Contains(err.Error(), "width 9") {
		t.Fatalf("agent of input width 9 accepted: %v", err)
	}
}

func TestTrainWithProgress(t *testing.T) {
	calls := 0
	_, err := TrainWithProgress(TrainConfig{Hidden: 8, NumNodes: 8, Degrees: []int{2},
		Stages: 2, Iterations: 3, BatchSize: 4, Seed: 2},
		func(iter int, reward float64) { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("progress called %d times", calls)
	}
}

func TestMergeGraphsFacade(t *testing.T) {
	a, _ := LoadModel("Xception")
	b, _ := LoadModel("ResNet50")
	m, err := MergeGraphs(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() != a.NumNodes()+b.NumNodes() {
		t.Fatalf("merged |V| = %d", m.NumNodes())
	}
	// Jointly scheduling two models balances their combined parameters.
	s, cost, optimal := ScheduleExact(m, 4, 30*time.Second)
	if !optimal {
		t.Fatal("exact truncated on merged graph")
	}
	if err := s.Validate(m); err != nil {
		t.Fatal(err)
	}
	total := float64(m.TotalParamBytes())
	if peak := float64(cost.PeakParamBytes); peak > total/4*1.25 {
		t.Fatalf("merged schedule poorly balanced: peak %.1f of total %.1f", peak, total)
	}
}

func TestExecutePipelineFacade(t *testing.T) {
	g, _ := LoadModel("Xception")
	s := ScheduleCompiler(g, 4)
	res, err := ExecutePipeline(g, s, CoralHW(), 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 || res.Makespan <= 0 {
		t.Fatalf("bad execution result: %+v", res)
	}
	rep, err := Simulate(g, s, CoralHW())
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.Throughput / rep.Throughput()
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("executor and analytic model disagree: %.1f vs %.1f inf/s",
			res.Throughput, rep.Throughput())
	}
}
