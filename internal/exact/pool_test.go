package exact

import (
	"sync"
	"testing"

	"respect/internal/models"
)

// poolTestCases mixes graph sizes and option sets so consecutive solves
// acquire arenas of mismatched shape — the scenario a stale scratch would
// corrupt. MaxStates bounds (never timeouts) keep every run deterministic.
func poolTestCases() []struct {
	model string
	k     int
	opts  Options
} {
	return []struct {
		model string
		k     int
		opts  Options
	}{
		{"Xception", 4, Options{MaxStates: 500_000}},
		{"ResNet50", 3, Options{MaxStates: 300_000}},
		{"Xception", 6, Options{MaxStates: 500_000, ChildrenRule: true}},
		{"Inception_v3", 4, Options{MaxStates: 200_000, ChildrenRule: true}},
		{"MobileNet", 2, Options{MaxStates: 100_000, TieBreakCross: true}},
		{"DenseNet121", 5, Options{MaxStates: 200_000}},
		{"ResNet50", 5, Options{MaxStates: 100_000, ChildrenRule: true, TieBreakCross: true}},
		{"InceptionResNetv2", 6, Options{MaxStates: 100_000, ChildrenRule: true}},
	}
}

func assertSameResult(t *testing.T, label string, want, got Result) {
	t.Helper()
	if got.Cost != want.Cost {
		t.Fatalf("%s: cost diverged across pooled solves: %v vs %v", label, got.Cost, want.Cost)
	}
	if got.States != want.States {
		t.Fatalf("%s: explored states diverged across pooled solves: %d vs %d", label, got.States, want.States)
	}
	if got.Optimal != want.Optimal {
		t.Fatalf("%s: optimality flag diverged: %v vs %v", label, got.Optimal, want.Optimal)
	}
	for v := range want.Schedule.Stage {
		if got.Schedule.Stage[v] != want.Schedule.Stage[v] {
			t.Fatalf("%s: node %d staged %d vs %d across pooled solves",
				label, v, got.Schedule.Stage[v], want.Schedule.Stage[v])
		}
	}
}

// TestPooledSolveDeterministic asserts the scratch arena is fully reset
// between solves: re-solving the same instance after the pool has served
// other instances (different sizes, different option sets) must reproduce
// the schedule, cost, AND the exact explored-state count of the first
// solve. Any bit of leaked state — a stale exclusion bit, a memo entry
// from another graph or from a quotient of another size — shifts States.
func TestPooledSolveDeterministic(t *testing.T) {
	cases := poolTestCases()
	first := make([]Result, len(cases))
	for i, c := range cases {
		g := models.MustLoad(c.model)
		first[i] = Solve(g, c.k, c.opts)
		if err := first[i].Schedule.Validate(g); err != nil {
			t.Fatalf("%s k=%d: invalid schedule: %v", c.model, c.k, err)
		}
	}
	// Interleave all cases twice more; each re-solve reuses arenas the
	// other cases dirtied.
	for round := 0; round < 2; round++ {
		for i, c := range cases {
			g := models.MustLoad(c.model)
			got := Solve(g, c.k, c.opts)
			assertSameResult(t, c.model, first[i], got)
		}
	}
}

// TestPooledSolveConcurrentReset hammers the pool from many goroutines
// under -race: concurrent solves must neither share live scratch state
// (the race detector catches that) nor perturb each other's results.
func TestPooledSolveConcurrentReset(t *testing.T) {
	cases := poolTestCases()
	expect := make([]Result, len(cases))
	for i, c := range cases {
		expect[i] = Solve(models.MustLoad(c.model), c.k, c.opts)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				i := (w + rep) % len(cases)
				c := cases[i]
				got := Solve(models.MustLoad(c.model), c.k, c.opts)
				if got.Cost != expect[i].Cost || got.States != expect[i].States {
					errs <- c.model
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for m := range errs {
		t.Fatalf("concurrent pooled solve diverged on %s", m)
	}
}

// TestChildrenRuleOnZooMatchesEvaluate pins the quotient path to a direct
// re-derivation on model-scale graphs: every children-rule schedule the
// solver returns must satisfy the constraint, and its reported cost must
// match an independent evaluation on the original graph.
func TestChildrenRuleOnZooMatchesEvaluate(t *testing.T) {
	for _, name := range []string{"Xception", "Inception_v3", "InceptionResNetv2"} {
		g := models.MustLoad(name)
		res := Solve(g, 4, Options{MaxStates: 2_000_000, ChildrenRule: true})
		checkDeployable(t, g, res)
		// The hardware-constrained optimum can never beat the unconstrained
		// monotone optimum.
		free := Solve(g, 4, Options{MaxStates: 2_000_000})
		if res.Cost.PeakParamBytes < free.Cost.PeakParamBytes && free.Optimal {
			t.Fatalf("%s: children-rule peak %d below unconstrained optimum %d",
				name, res.Cost.PeakParamBytes, free.Cost.PeakParamBytes)
		}
	}
}

// differentialSchedule re-checks that pooled exact solves agree with an
// evaluation from scratch structures over the whole zoo — the solver
// outputs must be bit-identical before/after the arena rewrite, and this
// pins the invariants any regression would break: validity, cost
// consistency, and (when optimal) peak <= every heuristic's peak.
func TestZooDifferentialConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("zoo sweep is long under -race")
	}
	for _, name := range models.Names() {
		g := models.MustLoad(name)
		res := Solve(g, 4, Options{MaxStates: 300_000})
		if err := res.Schedule.Validate(g); err != nil {
			t.Fatalf("%s: invalid: %v", name, err)
		}
		if got := res.Schedule.Evaluate(g); got != res.Cost {
			t.Fatalf("%s: cost mismatch: %v vs %v", name, got, res.Cost)
		}
		again := Solve(g, 4, Options{MaxStates: 300_000})
		assertSameResult(t, name, res, again)
	}
}
