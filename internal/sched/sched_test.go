package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"respect/internal/graph"
	"respect/internal/models"
)

func chain(t testing.TB, n int) *graph.Graph {
	t.Helper()
	g := graph.New("chain")
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{Name: "n", ParamBytes: 100, OutBytes: 10})
	}
	for i := 1; i < n; i++ {
		g.AddEdge(i-1, i)
	}
	return g.MustBuild()
}

func diamond(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.New("diamond")
	g.AddNode(graph.Node{Name: "a", OutBytes: 5})
	g.AddNode(graph.Node{Name: "b", ParamBytes: 100, OutBytes: 10})
	g.AddNode(graph.Node{Name: "c", ParamBytes: 200, OutBytes: 20})
	g.AddNode(graph.Node{Name: "d", OutBytes: 1})
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	return g.MustBuild()
}

func randomDAG(seed int64, maxN int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(maxN-1)
	g := graph.New("rand")
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{ParamBytes: int64(rng.Intn(500)), OutBytes: int64(rng.Intn(100))})
	}
	for v := 1; v < n; v++ {
		k := 1 + rng.Intn(3)
		seen := map[int]bool{}
		for j := 0; j < k; j++ {
			u := rng.Intn(v)
			if !seen[u] {
				seen[u] = true
				g.AddEdge(u, v)
			}
		}
	}
	return g.MustBuild()
}

func TestValidate(t *testing.T) {
	g := chain(t, 4)
	s := NewSchedule(4, 2)
	copy(s.Stage, []int{0, 0, 1, 1})
	if err := s.Validate(g); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	copy(s.Stage, []int{1, 0, 1, 1})
	if err := s.Validate(g); err == nil {
		t.Fatal("dependency violation accepted")
	}
	copy(s.Stage, []int{0, 0, 1, 2})
	if err := s.Validate(g); err == nil {
		t.Fatal("out-of-range stage accepted")
	}
	short := NewSchedule(3, 2)
	if err := short.Validate(g); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestEvaluate(t *testing.T) {
	g := diamond(t)
	s := NewSchedule(4, 2)
	copy(s.Stage, []int{0, 0, 1, 1})
	c := s.Evaluate(g)
	// Stage 0 holds a+b = 100 params; stage 1 holds c+d = 200.
	if c.PeakParamBytes != 200 {
		t.Errorf("PeakParamBytes = %d, want 200", c.PeakParamBytes)
	}
	// Crossing producers: a (edge a->c) and b (edge b->d): 5 + 10.
	if c.CrossBytes != 15 {
		t.Errorf("CrossBytes = %d, want 15", c.CrossBytes)
	}
}

// TestEvaluateAllocFree: every race member, cache fill and batch item
// prices its schedule, so Evaluate stays off the heap even on the zoo's
// largest pipelines.
func TestEvaluateAllocFree(t *testing.T) {
	g := models.MustLoad("ResNet152")
	s := dpSegment(g, g.TopoView(), 6)
	if allocs := testing.AllocsPerRun(100, func() { s.Evaluate(g) }); allocs != 0 {
		t.Fatalf("Evaluate on ResNet152/6 stages allocates %v times per call, want 0", allocs)
	}
}

func TestCostLess(t *testing.T) {
	a := Cost{PeakParamBytes: 100, CrossBytes: 50}
	b := Cost{PeakParamBytes: 100, CrossBytes: 60}
	c := Cost{PeakParamBytes: 90, CrossBytes: 999}
	if !a.Less(b) || b.Less(a) {
		t.Error("tie-break on CrossBytes wrong")
	}
	if !c.Less(a) {
		t.Error("peak dominates wrong")
	}
	if a.Less(a) {
		t.Error("Less not strict")
	}
}

func TestSequenceToScheduleBalances(t *testing.T) {
	g := chain(t, 6) // 600 bytes total
	seq := []int{0, 1, 2, 3, 4, 5}
	s, err := SequenceToSchedule(g, seq, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 1, 1, 2, 2}
	for v := range want {
		if s.Stage[v] != want[v] {
			t.Fatalf("Stage = %v, want %v", s.Stage, want)
		}
	}
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestSequenceToScheduleErrors(t *testing.T) {
	g := chain(t, 3)
	if _, err := SequenceToSchedule(g, []int{0, 1}, 2); err == nil {
		t.Error("short sequence accepted")
	}
	if _, err := SequenceToSchedule(g, []int{0, 1, 1}, 2); err == nil {
		t.Error("duplicate accepted")
	}
	if _, err := SequenceToSchedule(g, []int{0, 1, 9}, 2); err == nil {
		t.Error("out-of-range accepted")
	}
	if _, err := SequenceToSchedule(g, []int{0, 1, 2}, 0); err == nil {
		t.Error("zero stages accepted")
	}
}

func TestScheduleToSequenceIsLinearExtension(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 25)
		// Any monotone schedule: stage = ASAP level mod stages scaled.
		ns := 3
		s := NewSchedule(g.NumNodes(), ns)
		d := g.Depth() + 1
		for v := 0; v < g.NumNodes(); v++ {
			s.Stage[v] = g.ASAP(v) * ns / d
		}
		if err := s.Validate(g); err != nil {
			return false
		}
		seq := ScheduleToSequence(g, s)
		pos := make([]int, g.NumNodes())
		for i, v := range seq {
			pos[v] = i
		}
		for u := 0; u < g.NumNodes(); u++ {
			for _, v := range g.Succ(u) {
				if pos[u] >= pos[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPostProcessAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(seed, 40)
		ns := 2 + rng.Intn(5)
		s := NewSchedule(g.NumNodes(), ns)
		for v := range s.Stage {
			s.Stage[v] = rng.Intn(ns) // arbitrary, likely invalid
		}
		r := PostProcess(g, s)
		if err := r.Validate(g); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !r.SameStageChildrenOK(g) {
			t.Logf("seed %d: children split across stages", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPostProcessIdempotentOnValid(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 30)
		s := NewSchedule(g.NumNodes(), 4)
		// All-zero schedule is valid and has unified children.
		r := PostProcess(g, s)
		for v := range r.Stage {
			if r.Stage[v] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPostProcessPreservesValidMinimalChange(t *testing.T) {
	// A valid schedule whose branching children already share stages must
	// come back unchanged.
	g := diamond(t)
	s := NewSchedule(4, 3)
	copy(s.Stage, []int{0, 1, 1, 2})
	r := PostProcess(g, s)
	for v := range s.Stage {
		if r.Stage[v] != s.Stage[v] {
			t.Fatalf("PostProcess changed valid schedule: %v -> %v", s.Stage, r.Stage)
		}
	}
}

func TestPostProcessUnifiesChildrenToEarliest(t *testing.T) {
	g := diamond(t)
	s := NewSchedule(4, 4)
	copy(s.Stage, []int{0, 1, 3, 3}) // children of a: b@1, c@3 -> unify at 1
	r := PostProcess(g, s)
	if r.Stage[1] != 1 || r.Stage[2] != 1 {
		t.Fatalf("children not unified to earliest: %v", r.Stage)
	}
	if err := r.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestPostProcessPushesForward(t *testing.T) {
	g := chain(t, 3)
	s := NewSchedule(3, 3)
	copy(s.Stage, []int{2, 0, 1}) // node1 before its parent
	r := PostProcess(g, s)
	if err := r.Validate(g); err != nil {
		t.Fatal(err)
	}
	if r.Stage[0] != 2 || r.Stage[1] != 2 || r.Stage[2] != 2 {
		t.Fatalf("push-forward repair wrong: %v", r.Stage)
	}
}

func TestAgreement(t *testing.T) {
	a := Schedule{NumStages: 2, Stage: []int{0, 0, 1, 1}}
	b := Schedule{NumStages: 2, Stage: []int{0, 1, 1, 0}}
	if got := Agreement(a, b); got != 0.5 {
		t.Errorf("Agreement = %v, want 0.5", got)
	}
	if got := Agreement(a, a); got != 1 {
		t.Errorf("self Agreement = %v", got)
	}
	if got := Agreement(a, Schedule{}); got != 0 {
		t.Errorf("mismatched Agreement = %v", got)
	}
}

func TestOneHotMatchesAgreement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, ns := 1+rng.Intn(20), 1+rng.Intn(5)
		a, b := NewSchedule(n, ns), NewSchedule(n, ns)
		for i := 0; i < n; i++ {
			a.Stage[i] = rng.Intn(ns)
			b.Stage[i] = rng.Intn(ns)
		}
		ha, hb := a.OneHot(), b.OneHot()
		dot := 0.0
		na, nb := 0.0, 0.0
		for i := range ha {
			dot += ha[i] * hb[i]
			na += ha[i] * ha[i]
			nb += hb[i] * hb[i]
		}
		cos := dot / (sqrt(na) * sqrt(nb))
		diff := cos - Agreement(a, b)
		return diff < 1e-12 && diff > -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func TestRhoRoundTripOnBalancedChain(t *testing.T) {
	// γ -> ρ(γ) reconstructs a balanced exact schedule on a uniform chain.
	g := chain(t, 9)
	s := NewSchedule(9, 3)
	copy(s.Stage, []int{0, 0, 0, 1, 1, 1, 2, 2, 2})
	seq := ScheduleToSequence(g, s)
	s2, err := SequenceToSchedule(g, seq, 3)
	if err != nil {
		t.Fatal(err)
	}
	if Agreement(s, s2) != 1 {
		t.Fatalf("round trip lost schedule: %v -> %v", s.Stage, s2.Stage)
	}
}

func TestSequenceToScheduleDPNeverWorse(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 30)
		seq := g.Topo()
		for _, ns := range []int{2, 4, 6} {
			greedy, err := SequenceToSchedule(g, seq, ns)
			if err != nil {
				return false
			}
			dp, err := SequenceToScheduleDP(g, seq, ns)
			if err != nil {
				return false
			}
			if err := dp.Validate(g); err != nil {
				return false
			}
			if dp.Evaluate(g).PeakParamBytes > greedy.Evaluate(g).PeakParamBytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSequenceToScheduleDPErrors(t *testing.T) {
	g := chain(t, 3)
	if _, err := SequenceToScheduleDP(g, []int{0, 0, 1}, 2); err == nil {
		t.Error("duplicate accepted")
	}
	if _, err := SequenceToScheduleDP(g, []int{0, 1, 2}, 0); err == nil {
		t.Error("zero stages accepted")
	}
}

func TestSequenceToScheduleDPSegmentsContiguous(t *testing.T) {
	g := chain(t, 10)
	seq := g.Topo()
	s, err := SequenceToScheduleDP(g, seq, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Stages must be non-decreasing along the sequence.
	last := 0
	for _, v := range seq {
		if s.Stage[v] < last {
			t.Fatalf("segmentation not contiguous: %v", s.Stage)
		}
		last = s.Stage[v]
	}
}

func TestRepairSequenceProducesLinearExtension(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(seed, 40)
		// Random permutation, almost surely violating dependencies.
		seq := rng.Perm(g.NumNodes())
		out, err := RepairSequence(g, seq)
		if err != nil {
			return false
		}
		pos := make([]int, g.NumNodes())
		for i, v := range out {
			pos[v] = i
		}
		for u := 0; u < g.NumNodes(); u++ {
			for _, v := range g.Succ(u) {
				if pos[u] >= pos[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRepairSequenceIdentityOnValid(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 30)
		topo := g.Topo()
		out, err := RepairSequence(g, topo)
		if err != nil {
			return false
		}
		for i := range topo {
			if out[i] != topo[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRepairSequencePushesForwardOnly(t *testing.T) {
	// chain 0->1->2 emitted as [2,0,1]: 2 must be pushed after 1, giving
	// [0,1,2]; relative order of already-valid nodes is preserved.
	g := chain(t, 3)
	out, err := RepairSequence(g, []int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("repaired = %v", out)
		}
	}
}

func TestRepairSequenceErrors(t *testing.T) {
	g := chain(t, 3)
	if _, err := RepairSequence(g, []int{0, 1}); err == nil {
		t.Error("short sequence accepted")
	}
	if _, err := RepairSequence(g, []int{0, 0, 1}); err == nil {
		t.Error("duplicate accepted")
	}
	if _, err := RepairSequence(g, []int{0, 1, 7}); err == nil {
		t.Error("out of range accepted")
	}
}

// heuristics are the topological-order baselines, as the solver registry
// serves them before its post-processing.
var heuristics = []struct {
	name string
	fn   func(*graph.Graph, int) Schedule
}{
	{"GreedyBalanced", GreedyBalanced},
	{"DPBudget", DPBudget},
}

func TestAllHeuristicsValidOnRandomDAGs(t *testing.T) {
	for _, h := range heuristics {
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
		for _, h := range heuristics {
			s := h.fn(g, 4)
			if err := s.Validate(g); err != nil {
				t.Errorf("%s on %s: %v", h.name, name, err)
			}
		}
	}
}

func TestDPBudgetExactOnUniformChain(t *testing.T) {
	g := chain(t, 12)
	if c := DPBudget(g, 4).Evaluate(g); c.PeakParamBytes != 300 {
		t.Errorf("peak = %d, want 300", c.PeakParamBytes)
	}
}

func TestDPBudgetSingleStage(t *testing.T) {
	g := randomDAG(3, 20)
	if DPBudget(g, 1).Evaluate(g).PeakParamBytes != g.TotalParamBytes() {
		t.Error("single stage peak must equal total")
	}
}

func TestGreedyBalancedDeterministic(t *testing.T) {
	g := models.MustLoad("Xception")
	if Agreement(GreedyBalanced(g, 5), GreedyBalanced(g, 5)) != 1 {
		t.Error("GreedyBalanced not deterministic")
	}
}

func TestPostProcessKeepsHeuristicsDeployable(t *testing.T) {
	g := models.MustLoad("ResNet50")
	for _, h := range heuristics {
		s := PostProcess(g, h.fn(g, 4))
		if err := s.Validate(g); err != nil {
			t.Errorf("%s post-processed invalid: %v", h.name, err)
		}
		if !s.SameStageChildrenOK(g) {
			t.Errorf("%s post-processed violates children rule", h.name)
		}
	}
}
