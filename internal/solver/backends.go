package solver

import (
	"context"

	"respect/internal/compiler"
	"respect/internal/exact"
	"respect/internal/graph"
	"respect/internal/heur"
	"respect/internal/ilp"
	"respect/internal/sched"
)

// exactMaxStates bounds the built-in exact backends' state budget; the
// wall-clock budget comes from the caller's context.
const exactMaxStates = 200_000_000

// deployed applies the paper's deterministic deployment repair so every
// backend's output is directly comparable and hardware-ready.
func deployed(g *graph.Graph, s sched.Schedule) sched.Schedule {
	return sched.PostProcess(g, s)
}

// heuristic adapts a context-free heuristic to a Scheduler, post-processing
// its schedule; heuristics run in microseconds so only a pre-flight
// cancellation check is needed.
func heuristic(name string, fn func(g *graph.Graph, numStages int) sched.Schedule) Scheduler {
	return NewFunc(name, func(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
		if err := ctx.Err(); err != nil {
			return sched.Schedule{}, err
		}
		return deployed(g, fn(g, numStages)), nil
	})
}

// exactBackend is the branch-and-bound exact family. It searches the
// deployable schedules directly (exact.Options.ChildrenRule), so what it
// returns needs no repair, and it reports Info so truncated incumbents are
// never mistaken for (or cached as) proven optima.
type exactBackend struct {
	name string
	opts exact.Options
}

func (b exactBackend) Name() string { return b.name }

func (b exactBackend) Schedule(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
	s, _, err := b.ScheduleInfo(ctx, g, numStages)
	return s, err
}

func (b exactBackend) ScheduleInfo(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, Info, error) {
	res := exact.SolveCtx(ctx, g, numStages, b.opts)
	return res.Schedule, Info{Truncated: !res.Optimal, OptimalityProven: res.Optimal}, nil
}

// Exact returns the branch-and-bound exact backend: the minimum peak
// parameter memory over the deployable schedules, proven when the search
// completes (Info.OptimalityProven). It is an anytime solver: on context
// expiry it returns its incumbent (never an error), so it always
// contributes a valid schedule to a portfolio.
func Exact() Scheduler {
	return exactBackend{name: "exact", opts: exact.Options{MaxStates: exactMaxStates, ChildrenRule: true}}
}

// ExactILPGrade returns the exact backend with the cross-traffic tie-break
// (the paper's joint memory- and communication-aware formulation): the
// lexicographic (peak, cross) optimum over the deployable schedules.
func ExactILPGrade() Scheduler {
	return exactBackend{name: "exact-ilp-grade", opts: exact.Options{MaxStates: exactMaxStates, ChildrenRule: true, TieBreakCross: true}}
}

// ilpBackend is the generic MILP backend (the CPLEX stand-in). Unlike the
// combinatorial exact solver it can run out of budget with no incumbent,
// in which case it reports an error.
type ilpBackend struct{}

func (ilpBackend) Name() string { return "ilp" }

func (b ilpBackend) Schedule(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
	s, _, err := b.ScheduleInfo(ctx, g, numStages)
	return s, err
}

func (ilpBackend) ScheduleInfo(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, Info, error) {
	res, err := exact.SolveILPCtx(ctx, g, numStages, ilp.Options{})
	if err != nil {
		return sched.Schedule{}, Info{Truncated: true}, err
	}
	// The MILP's optimum is over all monotone schedules, a lower bound on
	// the deployable ones: the repaired schedule is proven optimal only
	// when the repair did not cost it that peak.
	s := deployed(g, res.Schedule)
	proven := res.Optimal && s.Evaluate(g).PeakParamBytes == res.Cost.PeakParamBytes
	return s, Info{Truncated: !res.Optimal, OptimalityProven: proven}, nil
}

// ILP returns the generic MILP backend.
func ILP() Scheduler { return ilpBackend{} }

// Compiler returns the Edge TPU compiler baseline's partition
// (parameter-balanced greedy walk, hardware-repaired) without paying for
// the quantization/tiling/serialization passes.
func Compiler() Scheduler {
	return heuristic("compiler", heur.GreedyBalanced)
}

// CompilerFull returns the complete compiler-emulation flow (quantization,
// partition, tiling, allocation, serialization) as a backend; its schedule
// matches Compiler but its solve time is the paper's Figure 3 baseline.
func CompilerFull() Scheduler {
	return NewFunc("compiler-full", func(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
		if err := ctx.Err(); err != nil {
			return sched.Schedule{}, err
		}
		res, err := compiler.Compile(g, numStages, compiler.DefaultOptions())
		if err != nil {
			return sched.Schedule{}, err
		}
		return res.Schedule, nil
	})
}

// Heur returns the strongest classic heuristic (exact DP segmentation of
// the deterministic topological order) — the portfolio's fast reliable
// member.
func Heur() Scheduler {
	return heuristic("heur", heur.DPBudget)
}

func init() {
	for _, s := range []Scheduler{
		Exact(),
		ExactILPGrade(),
		ILP(),
		Compiler(),
		CompilerFull(),
		Heur(),
		heuristic("hu", heur.HuLevel),
		heuristic("list", heur.ListSchedule),
		heuristic("force", heur.ForceDirected),
		heuristic("anneal", func(g *graph.Graph, numStages int) sched.Schedule {
			return heur.Annealed(g, numStages, 5000, 1)
		}),
	} {
		if err := Register(s); err != nil {
			panic(err)
		}
	}
}
