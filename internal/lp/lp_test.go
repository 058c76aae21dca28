package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSimple2D(t *testing.T) {
	// min -x - y s.t. x + y <= 4, x <= 2, y <= 3  -> x=2 (or 1), y ...
	// optimum: x + y = 4 with x <= 2, y <= 3: objective -4.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{-1, -1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Sense: LE, RHS: 4},
			{Coeffs: []float64{1, 0}, Sense: LE, RHS: 2},
			{Coeffs: []float64{0, 1}, Sense: LE, RHS: 3},
		},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, -4) {
		t.Fatalf("got %+v", s)
	}
}

func TestEqualityAndGE(t *testing.T) {
	// min x + 2y s.t. x + y = 3, x >= 1 -> x=3,y=0? x+2y minimized with
	// y=0, x=3: objective 3.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{1, 2},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Sense: EQ, RHS: 3},
			{Coeffs: []float64{1, 0}, Sense: GE, RHS: 1},
		},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, 3) || !approx(s.X[0], 3) {
		t.Fatalf("got %+v", s)
	}
}

func TestInfeasible(t *testing.T) {
	p := &Problem{
		NumVars:   1,
		Objective: []float64{1},
		Constraints: []Constraint{
			{Coeffs: []float64{1}, Sense: LE, RHS: 1},
			{Coeffs: []float64{1}, Sense: GE, RHS: 2},
		},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("got %+v", s)
	}
}

func TestUnbounded(t *testing.T) {
	p := &Problem{
		NumVars:   1,
		Objective: []float64{-1},
		Constraints: []Constraint{
			{Coeffs: []float64{1}, Sense: GE, RHS: 1},
		},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Fatalf("got %+v", s)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// x - y <= -1 means y >= x + 1; min y s.t. that and x >= 0: y = 1.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{0, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, -1}, Sense: LE, RHS: -1},
		},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, 1) {
		t.Fatalf("got %+v", s)
	}
}

func TestMalformed(t *testing.T) {
	if _, err := Solve(&Problem{NumVars: 0}); err == nil {
		t.Error("zero vars accepted")
	}
	p := &Problem{NumVars: 2, Objective: []float64{1, 1},
		Constraints: []Constraint{{Coeffs: []float64{1}, Sense: LE, RHS: 1}}}
	if _, err := Solve(p); err == nil {
		t.Error("ragged constraint accepted")
	}
}

func TestDegenerateRedundantRows(t *testing.T) {
	// Duplicate equality rows exercise artificial-variable cleanup.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Sense: EQ, RHS: 2},
			{Coeffs: []float64{1, 1}, Sense: EQ, RHS: 2},
			{Coeffs: []float64{1, 0}, Sense: GE, RHS: 1},
		},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, 2) {
		t.Fatalf("got %+v", s)
	}
}

// TestQuickAgainstVertexEnumeration cross-checks the simplex against brute
// force over basic feasible points for random small box-constrained LPs.
func TestQuickAgainstVertexEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(2) // 2-3 vars
		// Box constraints x_j <= u_j plus one coupling row.
		ub := make([]float64, n)
		for j := range ub {
			ub[j] = 1 + float64(rng.Intn(5))
		}
		coup := make([]float64, n)
		for j := range coup {
			coup[j] = float64(rng.Intn(3))
		}
		rhs := 1 + float64(rng.Intn(8))
		obj := make([]float64, n)
		for j := range obj {
			obj[j] = float64(rng.Intn(11) - 5)
		}

		p := &Problem{NumVars: n, Objective: obj}
		for j := 0; j < n; j++ {
			row := make([]float64, n)
			row[j] = 1
			p.Constraints = append(p.Constraints, Constraint{Coeffs: row, Sense: LE, RHS: ub[j]})
		}
		p.Constraints = append(p.Constraints, Constraint{Coeffs: coup, Sense: LE, RHS: rhs})

		s, err := Solve(p)
		if err != nil || s.Status != Optimal {
			return false
		}

		// Brute force on a fine grid (coarse but sufficient: optimum of an
		// LP over this polytope is attained at a vertex whose coordinates
		// here are rational with small denominators; grid step 0.25).
		best := math.Inf(1)
		var rec func(j int, x []float64)
		rec = func(j int, x []float64) {
			if j == n {
				dot := 0.0
				for k := 0; k < n; k++ {
					dot += coup[k] * x[k]
				}
				if dot > rhs+1e-9 {
					return
				}
				o := 0.0
				for k := 0; k < n; k++ {
					o += obj[k] * x[k]
				}
				if o < best {
					best = o
				}
				return
			}
			for v := 0.0; v <= ub[j]+1e-9; v += 0.25 {
				x[j] = v
				rec(j+1, x)
			}
		}
		rec(0, make([]float64, n))
		return s.Objective <= best+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestSolutionSatisfiesConstraints(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		m := 1 + rng.Intn(4)
		p := &Problem{NumVars: n, Objective: make([]float64, n)}
		for j := range p.Objective {
			p.Objective[j] = rng.Float64()*4 - 2
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = rng.Float64() * 2 // non-negative rows keep it bounded-ish
			}
			p.Constraints = append(p.Constraints, Constraint{Coeffs: row, Sense: LE, RHS: rng.Float64() * 10})
		}
		// Bound every variable so the LP is bounded.
		for j := 0; j < n; j++ {
			row := make([]float64, n)
			row[j] = 1
			p.Constraints = append(p.Constraints, Constraint{Coeffs: row, Sense: LE, RHS: 5})
		}
		s, err := Solve(p)
		if err != nil {
			return false
		}
		if s.Status != Optimal {
			return true // infeasible/unbounded classification not checked here
		}
		for _, c := range p.Constraints {
			dot := 0.0
			for j := range c.Coeffs {
				dot += c.Coeffs[j] * s.X[j]
			}
			switch c.Sense {
			case LE:
				if dot > c.RHS+1e-6 {
					return false
				}
			case GE:
				if dot < c.RHS-1e-6 {
					return false
				}
			case EQ:
				if math.Abs(dot-c.RHS) > 1e-6 {
					return false
				}
			}
		}
		for _, v := range s.X {
			if v < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" ||
		Unbounded.String() != "unbounded" {
		t.Error("status strings wrong")
	}
}

func TestDeadlineAborts(t *testing.T) {
	// A moderately sized random LP with an immediate deadline must return
	// ErrDeadline rather than running to optimality.
	rng := rand.New(rand.NewSource(1))
	n, m := 60, 60
	p := &Problem{NumVars: n, Objective: make([]float64, n)}
	for j := range p.Objective {
		p.Objective[j] = rng.Float64() - 0.5
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = rng.Float64()
		}
		p.Constraints = append(p.Constraints, Constraint{Coeffs: row, Sense: LE, RHS: 10})
	}
	for j := 0; j < n; j++ {
		row := make([]float64, n)
		row[j] = 1
		p.Constraints = append(p.Constraints, Constraint{Coeffs: row, Sense: LE, RHS: 1})
	}
	_, err := SolveOpt(context.Background(), p, Opts{MaxIters: 3})
	if err != ErrDeadline {
		t.Fatalf("MaxIters: got %v, want ErrDeadline", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = SolveOpt(ctx, p, Opts{})
	if err != ErrDeadline {
		t.Fatalf("cancelled context: got %v, want ErrDeadline", err)
	}
	// Without bounds the same problem solves.
	s, err := Solve(p)
	if err != nil || s.Status != Optimal {
		t.Fatalf("unbounded-budget solve: %v %v", s.Status, err)
	}
}
