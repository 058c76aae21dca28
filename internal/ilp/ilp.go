// Package ilp implements a branch-and-bound mixed-integer linear program
// solver over LP relaxations (package lp). Together with the scheduling
// formulation in package exact it reproduces the paper's "exact method
// conducted on constraint solving scheduling using ILP solver" — the role
// IBM ILOG CPLEX plays in the original evaluation.
package ilp

import (
	"context"
	"math"
	"time"

	"respect/internal/lp"
)

// Problem is an LP with integrality flags.
type Problem struct {
	LP lp.Problem
	// Integer marks which variables must take integral values.
	Integer []bool
}

// Options bounds solver effort. Wall-clock limits come only from the
// context passed to SolveCtx.
type Options struct {
	// MaxNodes caps branch-and-bound nodes; zero means unlimited.
	MaxNodes int
}

// Status reports the MILP outcome.
type Status int8

// MILP outcomes.
const (
	Optimal    Status = iota // proven optimal integral solution
	Feasible                 // integral incumbent, optimality unproven (budget)
	Infeasible               // no integral solution exists
	Unbounded                // LP relaxation unbounded
	Unknown                  // budget exhausted with no incumbent
)

// Solution is the MILP solve result.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	// Nodes counts branch-and-bound nodes explored.
	Nodes int
	// Elapsed is the wall-clock solve time.
	Elapsed time.Duration
}

const intTol = 1e-6

type bbSolver struct {
	base    lp.Problem
	integer []bool
	opts    Options
	ctx     context.Context
	start   time.Time

	bestX   []float64
	bestObj float64
	hasBest bool
	nodes   int
	stopped bool
}

// Solve runs depth-first branch and bound on p.
func Solve(p *Problem, opts Options) (Solution, error) {
	return SolveCtx(context.Background(), p, opts)
}

// SolveCtx is Solve under a context: when the context is done the search
// stops, aborting the current LP relaxation mid-pivot. A solve cut off
// with an integral incumbent reports Feasible; with none, Unknown.
func SolveCtx(ctx context.Context, p *Problem, opts Options) (Solution, error) {
	s := &bbSolver{
		base:    p.LP,
		integer: p.Integer,
		opts:    opts,
		ctx:     ctx,
		start:   time.Now(),
		bestObj: math.Inf(1),
	}
	status, err := s.branch(nil)
	if err != nil {
		return Solution{}, err
	}
	sol := Solution{Nodes: s.nodes, Elapsed: time.Since(s.start)}
	switch {
	case status == lp.Unbounded:
		sol.Status = Unbounded
	case s.hasBest && !s.stopped:
		sol.Status = Optimal
		sol.X = s.bestX
		sol.Objective = s.bestObj
	case s.hasBest:
		sol.Status = Feasible
		sol.X = s.bestX
		sol.Objective = s.bestObj
	case s.stopped:
		sol.Status = Unknown
	default:
		sol.Status = Infeasible
	}
	return sol, nil
}

func (s *bbSolver) outOfBudget() bool {
	if s.stopped {
		return true
	}
	if s.opts.MaxNodes > 0 && s.nodes >= s.opts.MaxNodes {
		s.stopped = true
		return true
	}
	if s.ctx.Err() != nil {
		s.stopped = true
		return true
	}
	return false
}

// branch solves the relaxation with the extra bound constraints and
// recurses on a fractional integer variable. It returns the top-level LP
// status (used to classify unboundedness).
func (s *bbSolver) branch(extra []lp.Constraint) (lp.Status, error) {
	if s.outOfBudget() {
		return lp.Infeasible, nil
	}
	s.nodes++

	prob := lp.Problem{
		NumVars:     s.base.NumVars,
		Objective:   s.base.Objective,
		Constraints: append(append([]lp.Constraint{}, s.base.Constraints...), extra...),
	}
	rel, err := lp.SolveOpt(s.ctx, &prob, lp.Opts{})
	if err == lp.ErrDeadline {
		s.stopped = true
		return lp.Infeasible, nil
	}
	if err != nil {
		return lp.Infeasible, err
	}
	switch rel.Status {
	case lp.Infeasible:
		return lp.Infeasible, nil
	case lp.Unbounded:
		return lp.Unbounded, nil
	}
	// Bound: the relaxation under-estimates every completion.
	if s.hasBest && rel.Objective >= s.bestObj-1e-9 {
		return lp.Optimal, nil
	}

	// Most-fractional branching variable.
	branchVar, frac := -1, 0.0
	for j, isInt := range s.integer {
		if !isInt {
			continue
		}
		f := rel.X[j] - math.Floor(rel.X[j])
		d := math.Min(f, 1-f)
		if d > intTol && d > frac {
			frac = d
			branchVar = j
		}
	}
	if branchVar < 0 {
		// Integral: new incumbent.
		obj := rel.Objective
		if !s.hasBest || obj < s.bestObj {
			s.hasBest = true
			s.bestObj = obj
			s.bestX = append([]float64(nil), rel.X...)
			// Snap near-integral entries exactly.
			for j, isInt := range s.integer {
				if isInt {
					s.bestX[j] = math.Round(s.bestX[j])
				}
			}
		}
		return lp.Optimal, nil
	}

	floorV := math.Floor(rel.X[branchVar])
	down := make([]float64, s.base.NumVars)
	down[branchVar] = 1
	up := make([]float64, s.base.NumVars)
	up[branchVar] = 1

	// Explore the branch nearer the fractional value first.
	first := lp.Constraint{Coeffs: down, Sense: lp.LE, RHS: floorV}
	second := lp.Constraint{Coeffs: up, Sense: lp.GE, RHS: floorV + 1}
	if rel.X[branchVar]-floorV > 0.5 {
		first, second = second, first
	}
	if _, err := s.branch(append(extra, first)); err != nil {
		return lp.Optimal, err
	}
	if _, err := s.branch(append(extra, second)); err != nil {
		return lp.Optimal, err
	}
	return lp.Optimal, nil
}
