package solver

import (
	"context"
	"strings"
	"testing"
	"time"

	"respect/internal/exact"
	"respect/internal/graph"
	"respect/internal/ilp"
	"respect/internal/models"
	"respect/internal/sched"
	"respect/internal/synth"
)

// oracleInstances is the population the exact-family oracle runs over:
// every zoo model, 256 synthetic DAGs of 30 and 50 nodes, in-degrees 1-6
// (the paper's training distribution and one size up), and 6 of 8 nodes,
// small enough for the generic MILP.
func oracleInstances(t *testing.T) []*graph.Graph {
	t.Helper()
	var gs []*graph.Graph
	for _, name := range models.Names() {
		gs = append(gs, models.MustLoad(name))
	}
	for _, nodes := range []int{30, 50} {
		for degree := 1; degree <= 6; degree++ {
			cfg := synth.DefaultConfig(degree)
			cfg.NumNodes = nodes
			s, err := synth.NewSampler(cfg, int64(100*nodes+degree))
			if err != nil {
				t.Fatal(err)
			}
			count := 21
			if degree <= 2 {
				count = 22 // 2*22 + 4*21 = 128 per size
			}
			gs = append(gs, s.SampleBatch(count)...)
		}
	}
	for degree := 1; degree <= 6; degree++ {
		cfg := synth.DefaultConfig(degree)
		cfg.NumNodes = 8
		s, err := synth.NewSampler(cfg, int64(degree))
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, s.Sample())
	}
	return gs
}

// milp is the generic MILP (the paper's CPLEX stand-in) as a Scheduler:
// the oracle's independent check of exact. Its optimum is over all
// monotone schedules, a lower bound on the deployable ones, so the
// repaired schedule is proven optimal only when the repair kept that peak.
type milp struct{}

func (milp) Name() string { return "milp" }

func (b milp) Schedule(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
	s, _, err := b.ScheduleInfo(ctx, g, numStages)
	return s, err
}

func (milp) ScheduleInfo(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, Info, error) {
	res, err := exact.SolveILPCtx(ctx, g, numStages, ilp.Options{})
	if err != nil {
		return sched.Schedule{}, Info{Truncated: true}, err
	}
	s := sched.PostProcess(g, res.Schedule)
	proven := res.Optimal && s.Evaluate(g).PeakParamBytes == res.Cost.PeakParamBytes
	return s, Info{Truncated: !res.Optimal, OptimalityProven: proven}, nil
}

// TestExactFamilyOracle is the differential oracle behind "a cost is never
// reported below the exact optimum": whenever exact claims a proof, no
// registered model-free backend, and on graphs of at most 8 nodes not the
// generic MILP either, deploys below it. It failed before exact searched
// the deployable space (ResNet50 at 4 stages: heur deployed at 7 508 672 B
// under a "proven optimal" 8 314 880 B).
func TestExactFamilyOracle(t *testing.T) {
	exactB, _ := Lookup("exact")
	lexB, _ := Lookup("exact-ilp-grade")
	others := []Scheduler{milp{}}
	for _, name := range Names() {
		switch {
		case strings.HasPrefix(name, "rl"): // model-bound, registered by other tests
		case name == "exact" || name == "exact-ilp-grade":
		default:
			b, _ := Lookup(name)
			others = append(others, b)
		}
	}
	if len(others) < 3 {
		t.Fatalf("only %d model-free backends besides the exact family: %v", len(others), Names())
	}

	proven, lexProven := 0, 0
	for i, g := range oracleInstances(t) {
		zoo := i < len(models.Names())
		stages := []int{4, 5, 6}
		if !zoo {
			stages = stages[i%3 : i%3+1]
		}
		if testing.Short() && g.NumNodes() > 200 {
			continue
		}
		for _, ns := range stages {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			s, info, err := ScheduleInfo(ctx, exactB, g, ns)
			cancel()
			if err != nil {
				t.Fatalf("%s/%d: exact: %v", g.Name, ns, err)
			}
			if err := s.Validate(g); err != nil {
				t.Fatalf("%s/%d: exact: %v", g.Name, ns, err)
			}
			if !s.SameStageChildrenOK(g) {
				t.Fatalf("%s/%d: exact's schedule is not deployable", g.Name, ns)
			}
			if d := sched.PostProcess(g, s); !equalStages(d, s) {
				t.Fatalf("%s/%d: the deployment repair changed exact's schedule", g.Name, ns)
			}
			if info.OptimalityProven == info.Truncated {
				t.Fatalf("%s/%d: exact reports %+v", g.Name, ns, info)
			}
			cost := s.Evaluate(g)

			// The tie-break variant searches the same space for the same
			// peak, then for less traffic: proven, it is never worse.
			if !zoo || g.NumNodes() <= 200 {
				ctx, cancel = context.WithTimeout(context.Background(), 2*time.Second)
				ls, linfo, err := ScheduleInfo(ctx, lexB, g, ns)
				cancel()
				if err != nil || ls.Validate(g) != nil || !ls.SameStageChildrenOK(g) {
					t.Fatalf("%s/%d: exact-ilp-grade: err %v, schedule %v", g.Name, ns, err, ls.Stage)
				}
				if linfo.OptimalityProven {
					lexProven++
					if lc := ls.Evaluate(g); cost.Less(lc) {
						t.Fatalf("%s/%d: exact-ilp-grade proved %+v, exact found %+v", g.Name, ns, lc, cost)
					}
				}
			}
			if !info.OptimalityProven {
				continue
			}
			proven++

			for _, b := range others {
				// The generic MILP takes seconds on anything but the smallest
				// graphs.
				if b.Name() == "milp" && g.NumNodes() > 8 {
					continue
				}
				out := solve(context.Background(), b, g, ns, time.Now())
				if out.Err != nil {
					t.Fatalf("%s/%d: %s: %v", g.Name, ns, b.Name(), out.Err)
				}
				if out.Cost.PeakParamBytes < cost.PeakParamBytes {
					t.Errorf("%s/%d: %s deploys at %d B, below exact's proven optimum %d B",
						g.Name, ns, b.Name(), out.Cost.PeakParamBytes, cost.PeakParamBytes)
				}
				if out.Info.OptimalityProven && out.Cost.PeakParamBytes != cost.PeakParamBytes {
					t.Fatalf("%s/%d: %s claims a proof at %d B, exact's is %d B",
						g.Name, ns, b.Name(), out.Cost.PeakParamBytes, cost.PeakParamBytes)
				}
			}
		}
	}
	// The oracle is only as good as its coverage: nearly every instance
	// here closes well inside the budget.
	if proven < 256 || lexProven < 200 {
		t.Fatalf("only %d exact and %d exact-ilp-grade solves were proven", proven, lexProven)
	}
}

func equalStages(a, b sched.Schedule) bool {
	if a.NumStages != b.NumStages || len(a.Stage) != len(b.Stage) {
		return false
	}
	for v := range a.Stage {
		if a.Stage[v] != b.Stage[v] {
			return false
		}
	}
	return true
}

// TestSolveRejectsUndeployableSchedule: a backend that hands back a
// pipeline-monotone schedule splitting the children of one node loses the
// race, however cheap that schedule looks, and is never stored.
func TestSolveRejectsUndeployableSchedule(t *testing.T) {
	// a -> {b, c}: stages 0,0,1 are monotone, peak 100, and undeployable;
	// the deployable optimum on two stages is {a | b, c} at peak 200.
	g := graph.New("fork")
	a := g.AddNode(graph.Node{ParamBytes: 0, OutBytes: 1})
	b := g.AddNode(graph.Node{ParamBytes: 100, OutBytes: 1})
	c := g.AddNode(graph.Node{ParamBytes: 100, OutBytes: 1})
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.MustBuild()
	split := sched.Schedule{NumStages: 2, Stage: []int{0, 0, 1}}
	if err := split.Validate(g); err != nil || split.SameStageChildrenOK(g) {
		t.Fatalf("fixture: want a monotone schedule that splits siblings (Validate: %v)", err)
	}
	forgot := fixed("forgot-deployed", split)
	heurB, _ := Lookup("heur")

	res, err := Portfolio(context.Background(), []Scheduler{forgot, heurB}, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "heur" || res.Cost.PeakParamBytes != 200 {
		t.Fatalf("winner %s at %+v, want heur at peak 200", res.Backend, res.Cost)
	}
	lost := res.Outcomes[0]
	if lost.Err == nil || !strings.Contains(lost.Err.Error(), "not deployable") || lost.Winner {
		t.Fatalf("undeployable member's outcome: %+v", lost)
	}
	if len(lost.Schedule.Stage) != 0 {
		t.Fatal("an undeployable schedule was kept on the outcome")
	}

	// Alone, it fails the solve and nothing is cached.
	e := engineOf(forgot, 4)
	if _, _, err := e.Run(context.Background(), g, 2); err == nil || !strings.Contains(err.Error(), "not deployable") {
		t.Fatalf("engine of one over an undeployable backend: err = %v", err)
	}
	if e.Len() != 0 {
		t.Fatal("an undeployable schedule was cached")
	}
}
