package ilp

import (
	"context"
	"testing"
	"time"

	"respect/internal/lp"
)

// knapsackProblem builds a small maximization-style MILP with a known
// optimum (phrased as minimization of the negated value).
func knapsackProblem() *Problem {
	// min -3x0 -4x1 -2x2  s.t.  2x0+3x1+x2 <= 4,  x binary.
	nv := 3
	p := &Problem{
		LP:      lp.Problem{NumVars: nv, Objective: []float64{-3, -4, -2}},
		Integer: []bool{true, true, true},
	}
	p.LP.Constraints = append(p.LP.Constraints,
		lp.Constraint{Coeffs: []float64{2, 3, 1}, Sense: lp.LE, RHS: 4},
		lp.Constraint{Coeffs: []float64{1, 0, 0}, Sense: lp.LE, RHS: 1},
		lp.Constraint{Coeffs: []float64{0, 1, 0}, Sense: lp.LE, RHS: 1},
		lp.Constraint{Coeffs: []float64{0, 0, 1}, Sense: lp.LE, RHS: 1},
	)
	return p
}

func TestSolveCtxMatchesSolve(t *testing.T) {
	want, err := Solve(knapsackProblem(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveCtx(context.Background(), knapsackProblem(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != want.Status || got.Objective != want.Objective {
		t.Fatalf("SolveCtx = (%v, %v), Solve = (%v, %v)", got.Status, got.Objective, want.Status, want.Objective)
	}
	if got.Status != Optimal {
		t.Fatalf("status = %v, want Optimal", got.Status)
	}
}

func TestSolveCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	sol, err := SolveCtx(ctx, knapsackProblem(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("pre-cancelled context did not stop the solve promptly")
	}
	if sol.Status != Unknown {
		t.Fatalf("status = %v, want Unknown for a solve cancelled before any incumbent", sol.Status)
	}
}

func TestSolveCtxDeadlineBoundsElapsed(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := SolveCtx(ctx, knapsackProblem(), Options{}); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("ctx deadline ignored")
	}
}
