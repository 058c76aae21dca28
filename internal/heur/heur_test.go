package heur

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"respect/internal/graph"
	"respect/internal/models"
	"respect/internal/sched"
)

func randomDAG(seed int64, maxN int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(maxN-1)
	g := graph.New("rand")
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{ParamBytes: int64(rng.Intn(1000)), OutBytes: 1 + int64(rng.Intn(100))})
	}
	for v := 1; v < n; v++ {
		for _, u := range rng.Perm(v)[:1+rng.Intn(min(v, 2))] {
			g.AddEdge(u, v)
		}
	}
	return g.MustBuild()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

type heuristic struct {
	name string
	fn   func(*graph.Graph, int) sched.Schedule
}

func all() []heuristic {
	return []heuristic{
		{"GreedyBalanced", GreedyBalanced},
		{"DPBudget", DPBudget},
		{"Annealed200", func(g *graph.Graph, n int) sched.Schedule { return Annealed(context.Background(), g, n, 200, 1) }},
	}
}

func TestAllHeuristicsValidOnRandomDAGs(t *testing.T) {
	for _, h := range all() {
		h := h
		t.Run(h.name, func(t *testing.T) {
			f := func(seed int64) bool {
				g := randomDAG(seed, 40)
				for _, ns := range []int{1, 2, 4, 6} {
					s := h.fn(g, ns)
					if err := s.Validate(g); err != nil {
						t.Logf("seed %d stages %d: %v", seed, ns, err)
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllHeuristicsValidOnModels(t *testing.T) {
	for _, name := range []string{"Xception", "ResNet50", "DenseNet121"} {
		g := models.MustLoad(name)
		for _, h := range all() {
			s := h.fn(g, 4)
			if err := s.Validate(g); err != nil {
				t.Errorf("%s on %s: %v", h.name, name, err)
			}
		}
	}
}

func TestDPBudgetOptimalOverOrder(t *testing.T) {
	// DPBudget must never do worse than GreedyBalanced on the same order.
	f := func(seed int64) bool {
		g := randomDAG(seed, 30)
		for _, ns := range []int{2, 3, 5} {
			dp := DPBudget(g, ns).Evaluate(g)
			gr := GreedyBalanced(g, ns).Evaluate(g)
			if dp.PeakParamBytes > gr.PeakParamBytes {
				t.Logf("seed %d ns %d: dp %v > greedy %v", seed, ns, dp, gr)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDPBudgetExactOnUniformChain(t *testing.T) {
	g := graph.New("chain")
	for i := 0; i < 12; i++ {
		g.AddNode(graph.Node{ParamBytes: 10})
	}
	for i := 1; i < 12; i++ {
		g.AddEdge(i-1, i)
	}
	g.MustBuild()
	s := DPBudget(g, 4)
	c := s.Evaluate(g)
	if c.PeakParamBytes != 30 {
		t.Errorf("peak = %d, want 30", c.PeakParamBytes)
	}
}

func TestDPBudgetSingleStage(t *testing.T) {
	g := randomDAG(3, 20)
	s := DPBudget(g, 1)
	if s.Evaluate(g).PeakParamBytes != g.TotalParamBytes() {
		t.Error("single stage peak must equal total")
	}
}

func TestAnnealedNeverWorseThanSeed(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 25)
		dp := DPBudget(g, 3).Evaluate(g)
		an := Annealed(context.Background(), g, 3, 300, seed).Evaluate(g)
		// Annealed keeps the best-seen schedule, which starts at the DP
		// seed, so peak can only improve or stay (cross may trade).
		return an.PeakParamBytes <= dp.PeakParamBytes ||
			// allow equality-class swaps where cross improved
			(an.PeakParamBytes == dp.PeakParamBytes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAnnealedStopsWhenCancelled: a done context stops the annealing
// before its first step, and the schedule returned is the DP seed's.
func TestAnnealedStopsWhenCancelled(t *testing.T) {
	g := models.MustLoad("DenseNet121")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := Annealed(ctx, g, 6, 1_000_000, 1)
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Evaluate(g), DPBudget(g, 6).Evaluate(g); got != want {
		t.Fatalf("cancelled anneal returned %+v, want the DP seed's %+v", got, want)
	}
}

func TestGreedyBalancedDeterministic(t *testing.T) {
	g := models.MustLoad("Xception")
	a := GreedyBalanced(g, 5)
	b := GreedyBalanced(g, 5)
	if sched.Agreement(a, b) != 1 {
		t.Error("GreedyBalanced not deterministic")
	}
}

func TestPostProcessKeepsHeuristicsDeployable(t *testing.T) {
	g := models.MustLoad("ResNet50")
	for _, h := range all() {
		s := sched.PostProcess(g, h.fn(g, 4))
		if err := s.Validate(g); err != nil {
			t.Errorf("%s post-processed invalid: %v", h.name, err)
		}
		if !s.SameStageChildrenOK(g) {
			t.Errorf("%s post-processed violates children rule", h.name)
		}
	}
}
