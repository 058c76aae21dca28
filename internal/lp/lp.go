// Package lp implements a dense two-phase primal simplex solver for linear
// programs in inequality form. It is the foundation of the branch-and-bound
// MILP solver (package ilp) that stands in for IBM ILOG CPLEX, the exact
// baseline of the paper.
//
// Problems are stated as
//
//	minimize cᵀx  subject to  A x (≤,=,≥) b,  x ≥ 0
//
// and solved with Bland's anti-cycling rule.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Sense is a constraint relation.
type Sense int8

// Constraint relations.
const (
	LE Sense = iota // ≤
	GE              // ≥
	EQ              // =
)

// Constraint is one row aᵀx (sense) b.
type Constraint struct {
	Coeffs []float64
	Sense  Sense
	RHS    float64
}

// Problem is a linear program in the package's canonical form.
type Problem struct {
	// NumVars is the dimension of x; all variables are non-negative.
	NumVars int
	// Objective holds the minimization coefficients c (length NumVars).
	Objective []float64
	// Constraints are the rows of A with senses and right-hand sides.
	Constraints []Constraint
}

// Status reports the outcome of a solve.
type Status int8

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("status(%d)", int8(s))
}

// Solution is an LP solve result.
type Solution struct {
	Status Status
	// X is the optimal point (valid when Status == Optimal).
	X []float64
	// Objective is cᵀX.
	Objective float64
	// Iterations counts simplex pivots across both phases.
	Iterations int
}

// ErrBadProblem reports a malformed problem definition.
var ErrBadProblem = errors.New("lp: malformed problem")

// ErrDeadline reports that the solve was cut off, by its context or its
// pivot cap, before reaching a conclusive status.
var ErrDeadline = errors.New("lp: deadline exceeded")

// Opts bounds a solve.
type Opts struct {
	// MaxIters caps total simplex pivots (0 uses the defensive default).
	MaxIters int
}

const eps = 1e-9

// Solve runs two-phase simplex on p without a deadline.
func Solve(p *Problem) (Solution, error) {
	return SolveOpt(context.Background(), p, Opts{})
}

// SolveOpt runs two-phase simplex on p under the given bounds; the solve
// aborts with ErrDeadline once ctx is done.
func SolveOpt(ctx context.Context, p *Problem, opts Opts) (Solution, error) {
	if p.NumVars <= 0 || len(p.Objective) != p.NumVars {
		return Solution{}, fmt.Errorf("%w: %d vars, %d objective coefficients", ErrBadProblem, p.NumVars, len(p.Objective))
	}
	for i, c := range p.Constraints {
		if len(c.Coeffs) != p.NumVars {
			return Solution{}, fmt.Errorf("%w: constraint %d has %d coefficients", ErrBadProblem, i, len(c.Coeffs))
		}
	}

	t := newTableau(p)
	t.ctx = ctx
	t.maxIters = opts.MaxIters
	if t.maxIters <= 0 {
		t.maxIters = 200000
	}
	it1, feasible := t.phase1()
	if t.aborted {
		return Solution{Iterations: it1}, ErrDeadline
	}
	if !feasible {
		return Solution{Status: Infeasible, Iterations: it1}, nil
	}
	it2, bounded := t.phase2()
	if t.aborted {
		return Solution{Iterations: it1 + it2}, ErrDeadline
	}
	if !bounded {
		return Solution{Status: Unbounded, Iterations: it1 + it2}, nil
	}
	x := t.extract()
	obj := 0.0
	for j, c := range p.Objective {
		obj += c * x[j]
	}
	return Solution{Status: Optimal, X: x, Objective: obj, Iterations: it1 + it2}, nil
}

// tableau is the dense simplex tableau: rows = constraints, columns =
// structural vars | slack/surplus vars | artificial vars | RHS.
type tableau struct {
	m, n    int // constraints, structural variables
	nSlack  int
	nArt    int
	cols    int // total variable columns
	a       [][]float64
	basis   []int
	cost    []float64 // phase-2 objective over all columns
	artBase int       // first artificial column

	ctx      context.Context
	maxIters int
	iters    int
	aborted  bool
}

func newTableau(p *Problem) *tableau {
	m := len(p.Constraints)
	n := p.NumVars
	nSlack := 0
	for _, c := range p.Constraints {
		if c.Sense != EQ {
			nSlack++
		}
	}
	nArt := m // upper bound; one artificial per row as needed
	cols := n + nSlack + nArt
	t := &tableau{m: m, n: n, nSlack: nSlack, nArt: 0, cols: cols, artBase: n + nSlack}
	t.a = make([][]float64, m)
	t.basis = make([]int, m)
	t.cost = make([]float64, cols)
	copy(t.cost, p.Objective)

	slack := 0
	for i, c := range p.Constraints {
		row := make([]float64, cols+1)
		copy(row, c.Coeffs)
		rhs := c.RHS
		sign := 1.0
		if rhs < 0 {
			// Normalize to non-negative RHS, flipping the sense.
			sign = -1
			rhs = -rhs
			for j := 0; j < n; j++ {
				row[j] = -row[j]
			}
		}
		sense := c.Sense
		if sign < 0 {
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		row[cols] = rhs
		switch sense {
		case LE:
			row[n+slack] = 1
			t.basis[i] = n + slack
			slack++
		case GE:
			row[n+slack] = -1
			slack++
			art := t.artBase + t.nArt
			t.nArt++
			row[art] = 1
			t.basis[i] = art
		case EQ:
			art := t.artBase + t.nArt
			t.nArt++
			row[art] = 1
			t.basis[i] = art
		}
		t.a[i] = row
	}
	return t
}

// pivot performs a standard pivot on (row, col).
func (t *tableau) pivot(row, col int) {
	pr := t.a[row]
	pv := pr[col]
	inv := 1 / pv
	for j := range pr {
		pr[j] *= inv
	}
	for i := range t.a {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		ri := t.a[i]
		for j := range ri {
			ri[j] -= f * pr[j]
		}
	}
	t.basis[row] = col
}

// simplex minimizes the reduced costs in z over the allowed columns,
// returning (iterations, bounded).
func (t *tableau) simplex(z []float64, allowed int) (int, bool) {
	iters := 0
	// Reduced-cost row maintained explicitly: zRow = z - z_B B⁻¹ A.
	zRow := make([]float64, t.cols+1)
	copy(zRow, z)
	for i, b := range t.basis {
		f := zRow[b]
		if f == 0 {
			continue
		}
		for j := range zRow {
			zRow[j] -= f * t.a[i][j]
		}
	}
	for {
		// Bland's rule: entering column = smallest index with negative
		// reduced cost.
		col := -1
		for j := 0; j < allowed; j++ {
			if zRow[j] < -eps {
				col = j
				break
			}
		}
		if col < 0 {
			return iters, true
		}
		// Ratio test, Bland ties by smallest basis index.
		row := -1
		best := math.Inf(1)
		for i := 0; i < t.m; i++ {
			if t.a[i][col] > eps {
				r := t.a[i][t.cols] / t.a[i][col]
				if r < best-eps || (r < best+eps && (row < 0 || t.basis[i] < t.basis[row])) {
					best = r
					row = i
				}
			}
		}
		if row < 0 {
			return iters, false
		}
		t.pivot(row, col)
		f := zRow[col]
		pr := t.a[row]
		for j := range zRow {
			zRow[j] -= f * pr[j]
		}
		iters++
		t.iters++
		if t.iters >= t.maxIters {
			// Bland's rule precludes cycling, so hitting the cap means a
			// numerically stuck or deliberately budget-bound instance.
			t.aborted = true
			return iters, true
		}
		if iters&0x3f == 0 && t.ctx.Err() != nil {
			t.aborted = true
			return iters, true
		}
	}
}

// phase1 drives artificial variables to zero.
func (t *tableau) phase1() (int, bool) {
	if t.nArt == 0 {
		return 0, true
	}
	z := make([]float64, t.cols+1)
	for j := t.artBase; j < t.artBase+t.nArt; j++ {
		z[j] = 1
	}
	iters, _ := t.simplex(z, t.cols)
	// Feasible iff the artificial objective is zero.
	sum := 0.0
	for i, b := range t.basis {
		if b >= t.artBase {
			sum += t.a[i][t.cols]
		}
	}
	if sum > 1e-7 {
		return iters, false
	}
	// Pivot any degenerate artificial variables out of the basis.
	for i, b := range t.basis {
		if b < t.artBase {
			continue
		}
		done := false
		for j := 0; j < t.artBase && !done; j++ {
			if math.Abs(t.a[i][j]) > eps {
				t.pivot(i, j)
				done = true
			}
		}
		// A row with no structural pivot is redundant; leave the
		// artificial basic at zero.
	}
	return iters, true
}

// phase2 optimizes the real objective over structural and slack columns.
func (t *tableau) phase2() (int, bool) {
	z := make([]float64, t.cols+1)
	copy(z, t.cost)
	return t.simplex(z, t.artBase)
}

// extract reads the structural solution out of the basis.
func (t *tableau) extract() []float64 {
	x := make([]float64, t.n)
	for i, b := range t.basis {
		if b < t.n {
			x[b] = t.a[i][t.cols]
		}
	}
	return x
}
