package exact

import (
	"math"
	"testing"
	"testing/quick"

	"respect/internal/ilp"
)

func TestILPMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 8)
		for _, ns := range []int{2, 3} {
			bf := BruteForce(g, ns)
			res, err := SolveILP(g, ns, ilp.Options{})
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			if !res.Optimal {
				t.Logf("seed %d: MILP not optimal", seed)
				return false
			}
			if res.Cost.PeakParamBytes != bf.Cost.PeakParamBytes {
				t.Logf("seed %d ns %d: ILP %v != brute %v", seed, ns, res.Cost, bf.Cost)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestILPMatchesCombinatorialSolver(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 12)
		res, err := SolveILP(g, 3, ilp.Options{})
		if err != nil || !res.Optimal {
			return false
		}
		comb := Solve(g, 3, Options{})
		return comb.Optimal && comb.Cost.PeakParamBytes == res.Cost.PeakParamBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestILPObjectiveMatchesScaledPeak(t *testing.T) {
	g := randomDAG(5, 10)
	res, err := SolveILP(g, 2, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(res.Cost.PeakParamBytes) * ilpScale(g)
	if math.Abs(res.MILP.Objective-want) > 1e-6 {
		t.Fatalf("MILP objective %v, schedule peak %v (scaled)", res.MILP.Objective, want)
	}
}

func TestBuildILPShape(t *testing.T) {
	g := randomDAG(7, 9)
	ns := 3
	p := BuildILP(g, ns)
	n := g.NumNodes()
	wantVars := n*ns + 1
	if p.LP.NumVars != wantVars {
		t.Fatalf("vars = %d, want %d", p.LP.NumVars, wantVars)
	}
	wantRows := n + g.NumEdges() + ns
	if len(p.LP.Constraints) != wantRows {
		t.Fatalf("rows = %d, want %d", len(p.LP.Constraints), wantRows)
	}
	ints := 0
	for _, b := range p.Integer {
		if b {
			ints++
		}
	}
	if ints != n*ns {
		t.Fatalf("integer vars = %d, want %d", ints, n*ns)
	}
}

func TestILPScheduleValid(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed, 10)
		res, err := SolveILP(g, 2, ilp.Options{})
		if err != nil {
			return false
		}
		return res.Schedule.Validate(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
