package ilp

import (
	"context"
	"math"
	"testing"
	"time"

	"respect/internal/lp"
)

func TestKnapsack(t *testing.T) {
	// max 5a + 4b + 3c (min negated) s.t. 2a + 3b + c <= 5, binary.
	p := &Problem{
		LP: lp.Problem{
			NumVars:   3,
			Objective: []float64{-5, -4, -3},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{2, 3, 1}, Sense: lp.LE, RHS: 5},
				{Coeffs: []float64{1, 0, 0}, Sense: lp.LE, RHS: 1},
				{Coeffs: []float64{0, 1, 0}, Sense: lp.LE, RHS: 1},
				{Coeffs: []float64{0, 0, 1}, Sense: lp.LE, RHS: 1},
			},
		},
		Integer: []bool{true, true, true},
	}
	s, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Best: a=1, c=1 (weight 3, value 8)? or a=1,b=1 (weight 5, value 9).
	if s.Status != Optimal || math.Abs(s.Objective-(-9)) > 1e-6 {
		t.Fatalf("got %+v", s)
	}
}

func TestIntegralityForcesWorseObjective(t *testing.T) {
	// LP relaxation gives x = 1.5; integral optimum is 1.
	p := &Problem{
		LP: lp.Problem{
			NumVars:   1,
			Objective: []float64{-1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{2}, Sense: lp.LE, RHS: 3},
			},
		},
		Integer: []bool{true},
	}
	s, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || math.Abs(s.X[0]-1) > 1e-6 {
		t.Fatalf("got %+v", s)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min -x - 10y, x continuous <= 2.5, y binary, x + y <= 3.
	p := &Problem{
		LP: lp.Problem{
			NumVars:   2,
			Objective: []float64{-1, -10},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1, 0}, Sense: lp.LE, RHS: 2.5},
				{Coeffs: []float64{0, 1}, Sense: lp.LE, RHS: 1},
				{Coeffs: []float64{1, 1}, Sense: lp.LE, RHS: 3},
			},
		},
		Integer: []bool{false, true},
	}
	s, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// y = 1 forces x <= 2: objective -1*2 - 10*1 = -12.
	if s.Status != Optimal || math.Abs(s.Objective-(-12)) > 1e-6 {
		t.Fatalf("got %+v", s)
	}
}

func TestInfeasibleInteger(t *testing.T) {
	// 0.4 <= x <= 0.6 has no integer point.
	p := &Problem{
		LP: lp.Problem{
			NumVars:   1,
			Objective: []float64{1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1}, Sense: lp.GE, RHS: 0.4},
				{Coeffs: []float64{1}, Sense: lp.LE, RHS: 0.6},
			},
		},
		Integer: []bool{true},
	}
	s, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("got %+v", s)
	}
}

func TestUnboundedRelaxation(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			NumVars:   1,
			Objective: []float64{-1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1}, Sense: lp.GE, RHS: 0},
			},
		},
		Integer: []bool{true},
	}
	s, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Fatalf("got %+v", s)
	}
}

func TestNodeBudget(t *testing.T) {
	// A 12-variable equality-partition instance that needs branching.
	n := 12
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8}
	half := 26.0
	rows := []lp.Constraint{{Coeffs: vals, Sense: lp.EQ, RHS: half}}
	for j := 0; j < n; j++ {
		r := make([]float64, n)
		r[j] = 1
		rows = append(rows, lp.Constraint{Coeffs: r, Sense: lp.LE, RHS: 1})
	}
	obj := make([]float64, n)
	for j := range obj {
		obj[j] = -1
	}
	p := &Problem{
		LP:      lp.Problem{NumVars: n, Objective: obj, Constraints: rows},
		Integer: make([]bool, n),
	}
	for j := range p.Integer {
		p.Integer[j] = true
	}
	s, err := Solve(p, Options{MaxNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status == Optimal && s.Nodes > 2 {
		t.Fatalf("optimal claimed past budget: %+v", s)
	}
}

func TestTimeout(t *testing.T) {
	// Same instance with an immediate deadline: must not claim optimal
	// unless it truly finished within the first node check.
	p := &Problem{
		LP: lp.Problem{
			NumVars:   2,
			Objective: []float64{-1, -1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1, 2}, Sense: lp.LE, RHS: 3.5},
				{Coeffs: []float64{1, 0}, Sense: lp.LE, RHS: 1},
				{Coeffs: []float64{0, 1}, Sense: lp.LE, RHS: 1},
			},
		},
		Integer: []bool{true, true},
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	s, err := SolveCtx(ctx, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status == Optimal {
		t.Fatalf("optimal under nanosecond deadline: %+v", s)
	}
}
