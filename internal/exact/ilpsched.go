package exact

import (
	"context"
	"fmt"
	"math"

	"respect/internal/graph"
	"respect/internal/ilp"
	"respect/internal/lp"
	"respect/internal/sched"
)

// ilpScale normalizes parameter bytes by the largest per-node footprint so
// the tableau's memory coefficients are O(1) — scale-free conditioning
// keeps one-byte objective differences far above the simplex tolerance.
func ilpScale(g *graph.Graph) float64 {
	var max int64 = 1
	for v := 0; v < g.NumNodes(); v++ {
		if p := g.Node(v).ParamBytes; p > max {
			max = p
		}
	}
	return 1 / float64(max)
}

// ILPResult pairs the recovered schedule with the raw MILP solution.
type ILPResult struct {
	Schedule sched.Schedule
	Cost     sched.Cost
	// Optimal reports proven optimality of the MILP.
	Optimal bool
	// MILP is the underlying solver result (nodes, elapsed, status).
	MILP ilp.Solution
}

// BuildILP constructs the paper's constraint-solving formulation of the
// pipeline scheduling problem ([21], [24]):
//
//	binaries x_{v,k}   — node v runs in stage k
//	continuous M       — peak per-stage parameter memory (MiB)
//
//	min M
//	s.t. Σ_k x_{v,k} = 1                      ∀ v      (assignment)
//	     Σ_k k·x_{u,k} ≤ Σ_k k·x_{v,k}        ∀ (u,v)  (dependency)
//	     Σ_v m_v·x_{v,k} ≤ M                  ∀ k      (memory/peak)
func BuildILP(g *graph.Graph, numStages int) *ilp.Problem {
	n := g.NumNodes()
	nv := n*numStages + 1 // + peak variable M
	mVar := n * numStages
	xv := func(v, k int) int { return v*numStages + k }

	p := &ilp.Problem{
		LP:      lp.Problem{NumVars: nv, Objective: make([]float64, nv)},
		Integer: make([]bool, nv),
	}
	p.LP.Objective[mVar] = 1
	for v := 0; v < n; v++ {
		for k := 0; k < numStages; k++ {
			p.Integer[xv(v, k)] = true
		}
	}

	row := func() []float64 { return make([]float64, nv) }

	// Assignment: each node in exactly one stage.
	for v := 0; v < n; v++ {
		r := row()
		for k := 0; k < numStages; k++ {
			r[xv(v, k)] = 1
		}
		p.LP.Constraints = append(p.LP.Constraints, lp.Constraint{Coeffs: r, Sense: lp.EQ, RHS: 1})
	}

	// Dependency: stage(u) <= stage(v) for every edge.
	for u := 0; u < n; u++ {
		for _, v := range g.Succ(u) {
			r := row()
			for k := 0; k < numStages; k++ {
				r[xv(u, k)] += float64(k)
				r[xv(v, k)] -= float64(k)
			}
			p.LP.Constraints = append(p.LP.Constraints, lp.Constraint{Coeffs: r, Sense: lp.LE, RHS: 0})
		}
	}

	// Memory: per-stage parameter load below the peak variable.
	scale := ilpScale(g)
	for k := 0; k < numStages; k++ {
		r := row()
		for v := 0; v < n; v++ {
			r[xv(v, k)] = float64(g.Node(v).ParamBytes) * scale
		}
		r[mVar] = -1
		p.LP.Constraints = append(p.LP.Constraints, lp.Constraint{Coeffs: r, Sense: lp.LE, RHS: 0})
	}

	// Explicit x <= 1 rows are omitted: the assignment equalities with
	// x >= 0 already imply them, and dropping n·numStages rows keeps the
	// dense tableau tractable at model scale.
	return p
}

// SolveILP formulates and solves the scheduling MILP, recovering the stage
// assignment from the binaries. This is the paper's exact baseline path;
// the combinatorial Solve is orders of magnitude faster and is used to
// cross-validate it in tests.
func SolveILP(g *graph.Graph, numStages int, opts ilp.Options) (ILPResult, error) {
	return SolveILPCtx(context.Background(), g, numStages, opts)
}

// SolveILPCtx is SolveILP under a context; the MILP search stops when the
// context is done, between and within LP relaxations.
func SolveILPCtx(ctx context.Context, g *graph.Graph, numStages int, opts ilp.Options) (ILPResult, error) {
	p := BuildILP(g, numStages)
	sol, err := ilp.SolveCtx(ctx, p, opts)
	if err != nil {
		return ILPResult{}, err
	}
	if sol.Status != ilp.Optimal && sol.Status != ilp.Feasible {
		return ILPResult{MILP: sol}, fmt.Errorf("exact: MILP returned no schedule (status %d)", sol.Status)
	}
	n := g.NumNodes()
	s := sched.NewSchedule(n, numStages)
	for v := 0; v < n; v++ {
		best, bestVal := 0, math.Inf(-1)
		for k := 0; k < numStages; k++ {
			if x := sol.X[v*numStages+k]; x > bestVal {
				bestVal = x
				best = k
			}
		}
		s.Stage[v] = best
	}
	if err := s.Validate(g); err != nil {
		return ILPResult{MILP: sol}, fmt.Errorf("exact: MILP schedule invalid: %w", err)
	}
	return ILPResult{
		Schedule: s,
		Cost:     s.Evaluate(g),
		Optimal:  sol.Status == ilp.Optimal,
		MILP:     sol,
	}, nil
}
