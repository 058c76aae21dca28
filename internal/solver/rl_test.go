package solver

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"respect/internal/embed"
	"respect/internal/graph"
	"respect/internal/ptrnet"
	"respect/internal/sched"
)

// rlTestModel is an untrained agent of the served size: decode time does
// not depend on the weights.
func rlTestModel() (*ptrnet.Model, embed.Config) {
	ecfg := embed.Default()
	return ptrnet.New(ptrnet.Config{InputDim: ecfg.Dim(), Hidden: 64, Seed: 1}), ecfg
}

// countdownCtx expires after its Err has been consulted a set number of
// times: a deadline that falls at a chosen point of a decode, with no
// clock involved.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(checks int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(checks)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestRLBackendsObserveCancellationMidDecode: every decode mode checks
// its context at each step, so a deadline that passes after the pre-flight
// check still stops the decode.
func TestRLBackendsObserveCancellationMidDecode(t *testing.T) {
	m, ecfg := rlTestModel()
	g := randomDAG(7, 12)
	n := int64(g.NumNodes())
	for _, c := range []struct {
		backend Scheduler
		checks  int64 // consultations that still succeed
	}{
		{RL(m, ecfg), 1 + n/2}, // pre-flight, then half the steps
		{RLSampled(m, ecfg, 3, 1), 1 + n/2},
		{RLSampled(m, ecfg, 3, 1), 1 + n},       // the whole greedy rollout: cut between samples
		{RLSampled(m, ecfg, 3, 1), 1 + 2*n + 3}, // inside the second sample
	} {
		ctx := newCountdownCtx(c.checks)
		if _, err := c.backend.Schedule(ctx, g, 3); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s with %d live checks: err = %v, want context.DeadlineExceeded", c.backend.Name(), c.checks, err)
		}
		if calls := c.checks - ctx.left.Load(); calls != c.checks+1 {
			t.Errorf("%s with %d live checks: ctx consulted %d times, want to stop at the first that fails", c.backend.Name(), c.checks, calls)
		}
		// Left alone, the same call completes.
		s, err := c.backend.Schedule(context.Background(), g, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(g); err != nil {
			t.Fatalf("%s: %v", c.backend.Name(), err)
		}
	}
}

// manualDeadline is a context whose deadline the test fires by hand.
type manualDeadline struct {
	context.Context
	done chan struct{}
	once sync.Once
}

func newManualDeadline() *manualDeadline {
	return &manualDeadline{Context: context.Background(), done: make(chan struct{})}
}

func (c *manualDeadline) Done() <-chan struct{} { return c.done }

func (c *manualDeadline) Err() error {
	select {
	case <-c.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

func (c *manualDeadline) expire() { c.once.Do(func() { close(c.done) }) }

// twoChains builds two disjoint chains of n nodes each. No node has two
// children, so every node is a class of its own, and the two chains
// interleave in many orders: the agent decodes all 2n classes. (A single
// chain has one order, which rl deploys without decoding.)
func twoChains(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New("chains")
	for i := 0; i < 2*n; i++ {
		g.AddNode(graph.Node{ParamBytes: int64(50*i + 7), OutBytes: 5})
		if i%n > 0 {
			g.AddEdge(i-1, i)
		}
	}
	return g.MustBuild()
}

// TestPortfolioNotHeldByCancelledRL is the {heur, rl} race on two
// 300-node chains: the agent decodes 600 classes and a decode takes tens
// of milliseconds. Once heur has answered and the deadline passes, rl
// must give up with the context error instead of holding the race until
// its decode ends.
func TestPortfolioNotHeldByCancelledRL(t *testing.T) {
	m, ecfg := rlTestModel()
	g := twoChains(t, 300)
	want, err := Heur().Schedule(context.Background(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	rlOutcome := func(res PortfolioResult) Outcome {
		t.Helper()
		if len(res.Outcomes) != 2 || res.Outcomes[1].Backend != "rl" {
			t.Fatalf("outcomes %+v", res.Outcomes)
		}
		return res.Outcomes[1]
	}

	t.Run("deadline passes as heur answers", func(t *testing.T) {
		ctx := newManualDeadline()
		heurThenDeadline := NewFunc("heur", func(c context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
			s, err := Heur().Schedule(c, g, numStages)
			ctx.expire()
			return s, err
		})
		res, err := Portfolio(ctx, []Scheduler{heurThenDeadline, RL(m, ecfg)}, g, 4)
		if err != nil {
			t.Fatal(err)
		}
		if res.Backend != "heur" || !slices.Equal(res.Schedule.Stage, want.Stage) {
			t.Fatalf("winner %q, want heur's schedule", res.Backend)
		}
		if o := rlOutcome(res); !errors.Is(o.Err, context.DeadlineExceeded) {
			t.Fatalf("rl outcome err = %v (after %v), want context.DeadlineExceeded", o.Err, o.Elapsed)
		}
	})

	// A real 1 ms deadline: rl cannot decode 600 classes inside it
	// whatever the machine does. heur usually can; when the scheduler starts it
	// late it refuses too, and then nobody has a schedule.
	t.Run("1ms deadline", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		res, err := Portfolio(ctx, []Scheduler{Heur(), RL(m, ecfg)}, g, 4)
		if o := rlOutcome(res); !errors.Is(o.Err, context.DeadlineExceeded) {
			t.Fatalf("rl outcome err = %v (after %v), want context.DeadlineExceeded", o.Err, o.Elapsed)
		}
		switch {
		case err == nil:
			if res.Backend != "heur" || !slices.Equal(res.Schedule.Stage, want.Stage) {
				t.Fatalf("winner %q, want heur's schedule", res.Backend)
			}
		case !errors.Is(err, context.DeadlineExceeded):
			t.Fatalf("err = %v, want a schedule or context.DeadlineExceeded", err)
		}
	})

	// An already-expired deadline: both members refuse at their
	// pre-flight check (heur's is in solver.heuristic), so the race
	// reports the deadline and no schedule.
	t.Run("expired deadline", func(t *testing.T) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		res, err := Portfolio(ctx, []Scheduler{Heur(), RL(m, ecfg)}, g, 4)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
		if o := rlOutcome(res); !errors.Is(o.Err, context.DeadlineExceeded) {
			t.Fatalf("rl outcome err = %v, want context.DeadlineExceeded", o.Err)
		}
	})
}

// TestBindAgent: binding registers exactly the two decode modes, a model
// of the wrong input width is refused with nothing registered, and a
// second binding replaces the first.
func TestBindAgent(t *testing.T) {
	m1, ecfg := rlTestModel()
	r := NewRegistry()
	wide := ptrnet.New(ptrnet.Config{InputDim: ecfg.Dim() + 1, Hidden: 8, Seed: 1})
	if err := r.BindAgent(wide, ecfg); err == nil {
		t.Fatal("a model of the wrong input width was bound")
	}
	if names := r.Names(); len(names) != 0 {
		t.Fatalf("a refused model registered %v", names)
	}
	if err := r.BindAgent(m1, ecfg); err != nil {
		t.Fatal(err)
	}
	if names := r.Names(); !slices.Equal(names, []string{"rl", "rl-sampled"}) {
		t.Fatalf("registered %v, want [rl rl-sampled]", names)
	}
	if err := r.BindAgent(wide, ecfg); err == nil {
		t.Fatal("a model of the wrong input width was bound over a good one")
	}

	// Find a graph the two models decode differently, so the bound "rl"
	// tells them apart.
	m2 := ptrnet.New(ptrnet.Config{InputDim: ecfg.Dim(), Hidden: 64, Seed: 2})
	decode := func(s Scheduler, g *graph.Graph) []int {
		t.Helper()
		out, err := s.Schedule(context.Background(), g, 3)
		if err != nil {
			t.Fatal(err)
		}
		return out.Stage
	}
	var g *graph.Graph
	for seed := int64(1); seed <= 50 && g == nil; seed++ {
		if c := randomDAG(seed, 20); !slices.Equal(decode(RL(m1, ecfg), c), decode(RL(m2, ecfg), c)) {
			g = c
		}
	}
	if g == nil {
		t.Fatal("no graph tells the two models apart")
	}
	bound := func() []int {
		t.Helper()
		s, err := r.Lookup("rl")
		if err != nil {
			t.Fatal(err)
		}
		return decode(s, g)
	}
	if !slices.Equal(bound(), decode(RL(m1, ecfg), g)) {
		t.Fatal("the refused binding replaced the bound model")
	}
	if err := r.BindAgent(m2, ecfg); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bound(), decode(RL(m2, ecfg), g)) {
		t.Fatal("rl still decodes with the first model after a second binding")
	}
	if names := r.Names(); !slices.Equal(names, []string{"rl", "rl-sampled"}) {
		t.Fatalf("after rebinding: %v, want [rl rl-sampled]", names)
	}
}
