package exact

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"respect/internal/graph"
	"respect/internal/models"
	"respect/internal/sched"
)

func randomDAG(seed int64, maxN int) *graph.Graph { return randomDAGDeg(seed, maxN, 2) }

// randomDAGDeg draws a DAG of 2..maxN nodes whose nodes have 1..maxIn
// parents each; a higher maxIn means larger sibling groups.
func randomDAGDeg(seed int64, maxN, maxIn int) *graph.Graph {
	return drawDAG(seed, maxN, maxIn, 0).MustBuild()
}

// drawDAG is randomDAGDeg before Build, with parameter weights drawn from
// [minWeight, 99].
func drawDAG(seed int64, maxN, maxIn, minWeight int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(maxN-1)
	g := graph.New("rand")
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{ParamBytes: int64(minWeight + rng.Intn(100-minWeight)), OutBytes: 1 + int64(rng.Intn(50))})
	}
	for v := 1; v < n; v++ {
		for _, u := range rng.Perm(v)[:1+rng.Intn(minInt(v, maxIn))] {
			g.AddEdge(u, v)
		}
	}
	return g
}

// TestNegativeWeightsNeverReachTheSearch: the branch and bound prunes on
// bounds that only hold for non-negative weights. Before graph.Build
// refused them, seed 42 of this draw made Solve with ChildrenRule report
// Optimal at peak 54 where brute force finds 50 (2 and 3 stages).
func TestNegativeWeightsNeverReachTheSearch(t *testing.T) {
	refused := 0
	for seed := int64(1); seed <= 300; seed++ {
		g := drawDAG(seed, 10, 2, -100)
		negative := false
		for _, nd := range g.Nodes() {
			negative = negative || nd.ParamBytes < 0
		}
		if err := g.Build(); negative != (err != nil) {
			t.Fatalf("seed %d: negative weight %v, Build error %v", seed, negative, err)
		}
		if negative {
			refused++
		}
	}
	if refused < 250 {
		t.Fatalf("only %d of 300 draws had a negative weight: the draw no longer exercises the check", refused)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestSolveMatchesBruteForcePeak(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 10)
		for _, ns := range []int{2, 3} {
			bf := BruteForce(g, ns)
			ex := Solve(g, ns, Options{})
			if !ex.Optimal {
				t.Logf("seed %d: solver truncated without budget", seed)
				return false
			}
			if ex.Cost.PeakParamBytes != bf.Cost.PeakParamBytes {
				t.Logf("seed %d ns %d: exact %v != brute %v", seed, ns, ex.Cost, bf.Cost)
				return false
			}
			if err := ex.Schedule.Validate(g); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveNeverWorseThanHeuristics(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 25)
		for _, ns := range []int{2, 4} {
			ex := Solve(g, ns, Options{})
			if !ex.Optimal {
				return false
			}
			if ex.Cost.PeakParamBytes > sched.GreedyBalanced(g, ns).Evaluate(g).PeakParamBytes {
				return false
			}
			if ex.Cost.PeakParamBytes > sched.DPBudget(g, ns).Evaluate(g).PeakParamBytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveBeatsSingleOrderDPWhenBranchy(t *testing.T) {
	// Two parallel heavy branches: the fixed topo order interleaves
	// suboptimally for some weights; the exact solver must find the true
	// optimum. Construct: source -> (a:90, b:10) -> sink, 2 stages.
	g := graph.New("branchy")
	src := g.AddNode(graph.Node{})
	a1 := g.AddNode(graph.Node{ParamBytes: 60})
	a2 := g.AddNode(graph.Node{ParamBytes: 30})
	b1 := g.AddNode(graph.Node{ParamBytes: 50})
	b2 := g.AddNode(graph.Node{ParamBytes: 40})
	sink := g.AddNode(graph.Node{})
	g.AddEdge(src, a1)
	g.AddEdge(a1, a2)
	g.AddEdge(src, b1)
	g.AddEdge(b1, b2)
	g.AddEdge(a2, sink)
	g.AddEdge(b2, sink)
	g.MustBuild()

	ex := Solve(g, 2, Options{})
	if !ex.Optimal {
		t.Fatal("truncated")
	}
	// Optimal split: {a1, b1 side mix} peak 90: e.g. stage0 = {src,a1,a2}
	// (90), stage1 = {b1,b2,sink} (90). Brute force confirms.
	bf := BruteForce(g, 2)
	if ex.Cost.PeakParamBytes != bf.Cost.PeakParamBytes {
		t.Fatalf("exact %v != brute %v", ex.Cost, bf.Cost)
	}
	if ex.Cost.PeakParamBytes != 90 {
		t.Fatalf("peak = %d, want 90", ex.Cost.PeakParamBytes)
	}
}

func TestSolveSingleStage(t *testing.T) {
	g := randomDAG(1, 15)
	r := Solve(g, 1, Options{})
	if !r.Optimal || r.Cost.PeakParamBytes != g.TotalParamBytes() {
		t.Fatalf("single-stage: %+v", r.Cost)
	}
}

func TestSolveTimeoutTruncates(t *testing.T) {
	g := models.MustLoad("ResNet50")
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	r := SolveCtx(ctx, g, 6, Options{})
	if err := r.Schedule.Validate(g); err != nil {
		t.Fatalf("truncated result invalid: %v", err)
	}
	// With a 1ms budget on a 177-node graph the search cannot finish...
	// unless pruning is extraordinarily effective; either way the result
	// must be at least as good as the DP seed.
	seed := sched.DPBudget(g, 6).Evaluate(g)
	if seed.PeakParamBytes < r.Cost.PeakParamBytes {
		t.Fatalf("result worse than its own seed: %v vs %v", r.Cost, seed)
	}
}

func TestSolveMaxStatesTruncates(t *testing.T) {
	g := models.MustLoad("Xception")
	r := Solve(g, 4, Options{MaxStates: 100})
	if r.Optimal && r.States > 100 {
		t.Fatalf("claimed optimal beyond state budget: %+v", r)
	}
	if err := r.Schedule.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestSolveOnRealModels(t *testing.T) {
	if testing.Short() {
		t.Skip("model-scale exact solves in short mode")
	}
	for _, name := range []string{"Xception", "ResNet50"} {
		g := models.MustLoad(name)
		for _, ns := range []int{4, 5, 6} {
			r := Solve(g, ns, Options{MaxStates: 20_000_000})
			if err := r.Schedule.Validate(g); err != nil {
				t.Errorf("%s/%d: %v", name, ns, err)
			}
			dp := sched.DPBudget(g, ns).Evaluate(g)
			if r.Cost.PeakParamBytes > dp.PeakParamBytes {
				t.Errorf("%s/%d: exact %v worse than DP %v", name, ns, r.Cost, dp)
			}
			t.Logf("%s/%d: peak %.3f MiB optimal=%v states=%d in %v",
				name, ns, float64(r.Cost.PeakParamBytes)/(1<<20), r.Optimal, r.States, r.Elapsed)
		}
	}
}

func TestBruteForceTieBreaksOnCross(t *testing.T) {
	// Chain of two equal-weight nodes with a huge tensor between them:
	// both cuts give peak 10; the cross tie-break must pick the cut
	// outside the fat edge.
	g := graph.New("tie")
	a := g.AddNode(graph.Node{ParamBytes: 10, OutBytes: 1000})
	bn := g.AddNode(graph.Node{ParamBytes: 10, OutBytes: 1})
	c := g.AddNode(graph.Node{ParamBytes: 10, OutBytes: 1})
	g.AddEdge(a, bn)
	g.AddEdge(bn, c)
	g.MustBuild()
	// Cutting after a or after b both give peak 20; only the cut after b
	// avoids shipping a's 1000-byte tensor across the boundary.
	r := BruteForce(g, 2)
	if r.Cost.PeakParamBytes != 20 {
		t.Fatalf("peak = %d", r.Cost.PeakParamBytes)
	}
	if r.Cost.CrossBytes != 1 {
		t.Fatalf("cross = %d, want 1 (cut after b)", r.Cost.CrossBytes)
	}
}

func TestTieBreakCrossMatchesBruteForceLex(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 9)
		for _, ns := range []int{2, 3} {
			bf := BruteForce(g, ns)
			ex := Solve(g, ns, Options{TieBreakCross: true})
			if !ex.Optimal {
				return false
			}
			if ex.Cost != bf.Cost {
				t.Logf("seed %d ns %d: tiebreak %+v != brute %+v", seed, ns, ex.Cost, bf.Cost)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestTieBreakCrossNeverWorse(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 16)
		fast := Solve(g, 3, Options{})
		lex := Solve(g, 3, Options{TieBreakCross: true})
		if !fast.Optimal || !lex.Optimal {
			return false
		}
		if lex.Cost.PeakParamBytes != fast.Cost.PeakParamBytes {
			return false
		}
		return lex.Cost.CrossBytes <= fast.Cost.CrossBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// bruteForceChildrenRule enumerates the monotone schedules satisfying the
// children-same-stage rule and returns the lexicographic (peak, cross)
// optimum among them: the reference for both ChildrenRule modes. The
// all-in-one-stage schedule is always deployable, so one always exists.
func bruteForceChildrenRule(g *graph.Graph, numStages int) (sched.Schedule, sched.Cost) {
	n := g.NumNodes()
	topo := g.Topo()
	stage := make([]int, n)
	best := sched.NewSchedule(n, numStages)
	bestCost := sched.Cost{PeakParamBytes: 1 << 62, CrossBytes: 1 << 62}
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			s := sched.Schedule{NumStages: numStages, Stage: stage}
			if !s.SameStageChildrenOK(g) {
				return
			}
			if cost := s.Evaluate(g); cost.Less(bestCost) {
				bestCost = cost
				copy(best.Stage, stage)
			}
			return
		}
		v := topo[i]
		lo := 0
		for _, p := range g.Pred(v) {
			if stage[p] > lo {
				lo = stage[p]
			}
		}
		for st := lo; st < numStages; st++ {
			stage[v] = st
			rec(i + 1)
		}
	}
	rec(0)
	return best, bestCost
}

// checkDeployable asserts what every ChildrenRule result owes its caller,
// truncated or not: a valid deployable schedule priced on the graph it was
// asked about.
func checkDeployable(t *testing.T, g *graph.Graph, res Result) {
	t.Helper()
	if err := res.Schedule.Validate(g); err != nil {
		t.Fatalf("%s: invalid schedule: %v", g.Name, err)
	}
	if !res.Schedule.SameStageChildrenOK(g) {
		t.Fatalf("%s: children rule violated: %v", g.Name, res.Schedule.Stage)
	}
	if got := res.Schedule.Evaluate(g); got != res.Cost {
		t.Fatalf("%s: reported cost %+v, re-evaluated %+v", g.Name, res.Cost, got)
	}
}

// TestChildrenRuleMatchesBruteForce is the quotient solver's differential:
// on random DAGs small enough to enumerate, ChildrenRule finds the
// deployable peak optimum and ChildrenRule+TieBreakCross the lexicographic
// (peak, cross) one. The seeds are fresh on every run; CI repeats it.
func TestChildrenRuleMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		// In-degrees up to 1 (trees, whose sibling classes fan out to several
		// child classes: the case the per-edge cross weights exist for)
		// through 4 (a few large classes closed over class-level cycles).
		g := randomDAGDeg(seed, 12, 1+int(uint64(seed)%4))
		for _, ns := range []int{2, 3, 4} {
			_, want := bruteForceChildrenRule(g, ns)
			res := Solve(g, ns, Options{ChildrenRule: true})
			lex := Solve(g, ns, Options{ChildrenRule: true, TieBreakCross: true})
			checkDeployable(t, g, res)
			checkDeployable(t, g, lex)
			if !res.Optimal || !lex.Optimal {
				t.Logf("seed %d ns %d: truncated without a budget", seed, ns)
				return false
			}
			if res.Cost.PeakParamBytes != want.PeakParamBytes {
				t.Logf("seed %d ns %d: solver %+v != brute %+v", seed, ns, res.Cost, want)
				return false
			}
			if lex.Cost != want {
				t.Logf("seed %d ns %d: tie-break %+v != brute %+v", seed, ns, lex.Cost, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestChildrenRuleQuotientShapes covers the quotients at the edges of the
// reduction: nothing to merge, everything merged, fewer classes than
// stages.
func TestChildrenRuleQuotientShapes(t *testing.T) {
	both := []Options{{ChildrenRule: true}, {ChildrenRule: true, TieBreakCross: true}}

	// One node is one class: every stage count puts everything in one stage.
	one := graph.New("one")
	one.AddNode(graph.Node{ParamBytes: 7, OutBytes: 3})
	one.MustBuild()
	// r -> {a, b, c} with a -> b -> c: the siblings are also a chain, so
	// everything below r is one class and there are two classes in all.
	two := graph.New("two")
	r := two.AddNode(graph.Node{ParamBytes: 5, OutBytes: 11})
	a := two.AddNode(graph.Node{ParamBytes: 10, OutBytes: 1})
	b := two.AddNode(graph.Node{ParamBytes: 20, OutBytes: 1})
	c := two.AddNode(graph.Node{ParamBytes: 30, OutBytes: 1})
	for _, e := range [][2]int{{r, a}, {r, b}, {r, c}, {a, b}, {b, c}} {
		two.AddEdge(e[0], e[1])
	}
	two.MustBuild()
	for _, opts := range both {
		for ns := 1; ns <= 5; ns++ {
			res := Solve(one, ns, opts)
			checkDeployable(t, one, res)
			if !res.Optimal || res.Cost != (sched.Cost{PeakParamBytes: 7}) {
				t.Fatalf("one class, %d stages: %+v optimal=%v", ns, res.Cost, res.Optimal)
			}
			// More stages than classes: the extra stages stay empty.
			res = Solve(two, ns, opts)
			checkDeployable(t, two, res)
			want := sched.Cost{PeakParamBytes: 60, CrossBytes: 11}
			if ns == 1 {
				want = sched.Cost{PeakParamBytes: 65}
			}
			if !res.Optimal || res.Cost != want {
				t.Fatalf("two classes, %d stages: %+v optimal=%v, want %+v", ns, res.Cost, res.Optimal, want)
			}
		}
	}

	// Without edges there are no siblings: the quotient is the graph and
	// the deployable optimum is the monotone one.
	edgeless := graph.New("edgeless")
	for _, p := range []int64{40, 10, 30, 20, 25} {
		edgeless.AddNode(graph.Node{ParamBytes: p, OutBytes: 9})
	}
	edgeless.MustBuild()
	for _, opts := range both {
		for _, ns := range []int{2, 3, 7} {
			res := Solve(edgeless, ns, opts)
			checkDeployable(t, edgeless, res)
			if free := BruteForce(edgeless, ns); !res.Optimal || res.Cost != free.Cost {
				t.Fatalf("edgeless, %d stages: %+v optimal=%v, monotone optimum %+v", ns, res.Cost, res.Optimal, free.Cost)
			}
		}
	}
}

// TestChildrenRuleTruncatedIsDeployable: a solve that never got to search
// (cancelled beforehand, or out of states at once) still hands back a
// deployable incumbent and does not call it optimal.
func TestChildrenRuleTruncatedIsDeployable(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"ResNet50", "Inception_v3"} {
		g := models.MustLoad(name)
		for _, tb := range []bool{false, true} {
			for _, res := range []Result{
				SolveCtx(cancelled, g, 4, Options{ChildrenRule: true, TieBreakCross: tb}),
				Solve(g, 4, Options{ChildrenRule: true, TieBreakCross: tb, MaxStates: 1}),
			} {
				checkDeployable(t, g, res)
				if res.Optimal {
					t.Fatalf("%s: a solve cut at %d states claims optimality", name, res.States)
				}
			}
		}
	}
}

func TestChildrenRuleAtLeastMonotoneOptimum(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 16)
		free := Solve(g, 3, Options{})
		constrained := Solve(g, 3, Options{ChildrenRule: true})
		if !free.Optimal || !constrained.Optimal {
			return false
		}
		return constrained.Cost.PeakParamBytes >= free.Cost.PeakParamBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestChildrenRuleOnRealModels(t *testing.T) {
	for _, name := range []string{"Xception", "ResNet50", "DenseNet121"} {
		g := models.MustLoad(name)
		for _, ns := range []int{4, 6} {
			res := Solve(g, ns, Options{ChildrenRule: true, MaxStates: 50_000_000})
			if !res.Schedule.SameStageChildrenOK(g) {
				t.Fatalf("%s/%d: children rule violated", name, ns)
			}
			free := Solve(g, ns, Options{})
			if res.Optimal && res.Cost.PeakParamBytes < free.Cost.PeakParamBytes {
				t.Fatalf("%s/%d: constrained beat unconstrained", name, ns)
			}
			t.Logf("%s/%d: deployable-optimal %.3f MiB vs monotone %.3f MiB (optimal=%v, %v)",
				name, ns, float64(res.Cost.PeakParamBytes)/(1<<20),
				float64(free.Cost.PeakParamBytes)/(1<<20), res.Optimal, res.Elapsed)
		}
	}
}
