package solver

import (
	"context"

	"respect/internal/exact"
	"respect/internal/graph"
	"respect/internal/sched"
)

// exactMaxStates bounds the built-in exact backends' state budget; the
// wall-clock budget comes from the caller's context.
const exactMaxStates = 200_000_000

// heuristic adapts a context-free heuristic to a Scheduler, applying the
// paper's deployment repair (sched.PostProcess) to its schedule; heuristics
// run in microseconds so only a pre-flight cancellation check is needed.
func heuristic(name string, fn func(g *graph.Graph, numStages int) sched.Schedule) Scheduler {
	return NewFunc(name, func(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
		if err := ctx.Err(); err != nil {
			return sched.Schedule{}, err
		}
		return sched.PostProcess(g, fn(g, numStages)), nil
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

// Compiler returns the Edge TPU compiler baseline's partition
// (parameter-balanced greedy walk, hardware-repaired) without paying for
// the quantization/tiling/serialization passes; the full flow, whose
// solve time is the paper's Figure 3 baseline, is compiler.Compile.
func Compiler() Scheduler {
	return heuristic("compiler", sched.GreedyBalanced)
}

// Heur returns the strongest classic heuristic (exact DP segmentation of
// the deterministic topological order) — the portfolio's fast reliable
// member.
func Heur() Scheduler {
	return heuristic("heur", sched.DPBudget)
}

func init() {
	for _, s := range []Scheduler{
		Exact(),
		ExactILPGrade(),
		Compiler(),
		Heur(),
	} {
		if err := Register(s); err != nil {
			panic(err)
		}
	}
}
