package solver

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"respect/internal/graph"
	"respect/internal/models"
	"respect/internal/sched"
	"respect/internal/synth"
)

// TestEngineOfOneDifferential: serving a single backend as an engine of
// one changes nothing about what it returns. For every model-free
// registered backend, a miss is the backend's own schedule bit for bit, a
// hit is the miss again (schedule, cost, backend), and a hit never
// aliases the stored schedule.
func TestEngineOfOneDifferential(t *testing.T) {
	graphs, err := models.LoadMany("MobileNet", "Xception", "ResNet50")
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := synth.NewSampler(synth.DefaultConfig(4), 20230710)
	if err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, sampler.SampleBatch(16)...)
	ctx := context.Background()
	for _, name := range Names() {
		if strings.HasPrefix(name, "rl") {
			continue // agent-bound, registered by whoever loads one
		}
		b, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		e := engineOf(b, len(graphs))
		for _, g := range graphs {
			direct, err := b.Schedule(ctx, g, 4)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, g.Name, err)
			}
			miss, hit, err := e.Run(ctx, g, 4)
			if err != nil || hit || miss.Truncated {
				t.Fatalf("%s/%s: first run hit=%v truncated=%v err=%v", name, g.Name, hit, miss.Truncated, err)
			}
			if miss.Schedule.NumStages != direct.NumStages || !slices.Equal(miss.Schedule.Stage, direct.Stage) {
				t.Fatalf("%s/%s: engine miss differs from the backend's own schedule", name, g.Name)
			}
			if miss.Backend != name || miss.Cost != direct.Evaluate(g) {
				t.Fatalf("%s/%s: miss reports %s at %v, want %s at %v", name, g.Name, miss.Backend, miss.Cost, name, direct.Evaluate(g))
			}
			got, hit, err := e.Run(ctx, g, 4)
			if err != nil || !hit {
				t.Fatalf("%s/%s: second run hit=%v err=%v", name, g.Name, hit, err)
			}
			if !slices.Equal(got.Schedule.Stage, miss.Schedule.Stage) || got.Cost != miss.Cost || got.Backend != miss.Backend {
				t.Fatalf("%s/%s: hit differs from miss", name, g.Name)
			}
			got.Schedule.Stage[0] = -1
			if again, _, _ := e.Run(ctx, g, 4); again.Schedule.Stage[0] != miss.Schedule.Stage[0] {
				t.Fatalf("%s/%s: a hit aliases the stored schedule", name, g.Name)
			}
		}
	}
}

// TestRaceOfOneMatchesRaceOfThree: the caller-goroutine race of one and
// the goroutine race report the same result for the same single finisher,
// apart from the scheduling delay only a spawned goroutine has.
func TestRaceOfOneMatchesRaceOfThree(t *testing.T) {
	g := randomDAG(5, 18)
	heurB, err := Lookup("heur")
	if err != nil {
		t.Fatal(err)
	}
	boom := NewFunc("boom", func(context.Context, *graph.Graph, int) (sched.Schedule, error) {
		return sched.Schedule{}, context.DeadlineExceeded
	})
	strip := func(res PortfolioResult, keep string) PortfolioResult {
		res.Outcomes = slices.DeleteFunc(slices.Clone(res.Outcomes), func(o Outcome) bool { return o.Backend != keep })
		for i := range res.Outcomes {
			res.Outcomes[i].Started, res.Outcomes[i].Elapsed = 0, 0
		}
		return res
	}
	one, errOne := PortfolioOpt(context.Background(), []Scheduler{heurB}, g, 4, PortfolioOptions{Patience: time.Second})
	three, errThree := PortfolioOpt(context.Background(), []Scheduler{boom, heurB, boom}, g, 4, PortfolioOptions{Patience: time.Second})
	if errOne != nil || errThree != nil {
		t.Fatal(errOne, errThree)
	}
	if one.Outcomes[0].Started != 0 {
		t.Fatalf("race of one started at %v, want 0: it runs on the caller's goroutine", one.Outcomes[0].Started)
	}
	if a, b := strip(one, "heur"), strip(three, "heur"); !reflect.DeepEqual(a, b) {
		t.Fatalf("race of one %+v\nrace of three %+v", a, b)
	}

	// With no finisher at all, both wrap the failure the same way.
	_, errOne = PortfolioOpt(context.Background(), []Scheduler{boom}, g, 4, PortfolioOptions{})
	_, errThree = PortfolioOpt(context.Background(), []Scheduler{boom, boom, boom}, g, 4, PortfolioOptions{})
	if errOne == nil || errThree == nil || errOne.Error() != errThree.Error() {
		t.Fatalf("failure wrapping differs: %v vs %v", errOne, errThree)
	}
}

// cutAnytime is an anytime backend whose deadline always cuts it: it
// hands back a cheaper schedule than heur's, flagged truncated.
type cutAnytime struct{}

func (cutAnytime) Name() string { return "cut-anytime" }
func (c cutAnytime) Schedule(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
	s, _, err := c.ScheduleInfo(ctx, g, numStages)
	return s, err
}
func (cutAnytime) ScheduleInfo(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, Info, error) {
	s, err := Exact().Schedule(ctx, g, numStages)
	return s, Info{Truncated: true}, err
}

// TestBatchFlagsTruncatedPortfolioWinner: a budget-cut incumbent that wins
// a batch item's race is flagged on the item and never stored, so the
// next batch races again.
func TestBatchFlagsTruncatedPortfolioWinner(t *testing.T) {
	g := randomDAG(3, 12) // the exact optimum beats heur's split here
	e := NewEngine([]Scheduler{Heur(), cutAnytime{}}, 8, PortfolioOptions{})
	for round := 0; round < 2; round++ {
		results, err := Batch(context.Background(), e, []*graph.Graph{g}, 3, 1)
		if err != nil || results[0].Err != nil {
			t.Fatal(err, results[0].Err)
		}
		r := results[0]
		if heurS, _ := Heur().Schedule(context.Background(), g, 3); !r.Cost.Less(heurS.Evaluate(g)) {
			t.Fatalf("round %d: item cost %v is not the cut member's cheaper one", round, r.Cost)
		}
		if !r.Truncated || r.CacheHit {
			t.Fatalf("round %d: truncated=%v cache_hit=%v, want a flagged fresh solve", round, r.Truncated, r.CacheHit)
		}
	}
	if e.Contains(g, 3) || e.Len() != 0 {
		t.Fatal("a truncated winner was stored")
	}
}

// TestEngineWarmCountsWhatIsStored pins Warm's return contract: the count
// is of distinct instances memoized when it returns.
func TestEngineWarmCountsWhatIsStored(t *testing.T) {
	ctx := context.Background()
	a, b, c := chain(1, 2, 3), chain(4, 5, 6), chain(7, 8, 9)
	trivial := NewFunc("trivial", trivialSolve)

	// Duplicates in the warm set count once.
	if n, err := engineOf(trivial, 8).Warm(ctx, []*graph.Graph{a, b, a, a}, 2); n != 2 || err != nil {
		t.Fatalf("duplicates: stored=%d err=%v, want 2", n, err)
	}
	// An instance evicted by a later warm is not counted.
	if n, err := engineOf(trivial, 2).Warm(ctx, []*graph.Graph{a, b, c}, 2); n != 2 || err != nil {
		t.Fatalf("capacity 2: stored=%d err=%v, want 2", n, err)
	}
	// A truncated race is skipped, not stored and not an error.
	if n, err := engineOf(&truncating{}, 8).Warm(ctx, []*graph.Graph{a}, 2); n != 0 || err != nil {
		t.Fatalf("truncated: stored=%d err=%v, want 0", n, err)
	}
	// A backend failure is reported and the other warms still land.
	failB := NewFunc("fail-b", func(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
		if g == b {
			return sched.Schedule{}, errors.New("boom")
		}
		return trivialSolve(ctx, g, numStages)
	})
	if n, err := engineOf(failB, 8).Warm(ctx, []*graph.Graph{a, b, c}, 2); n != 2 || err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("one failure: stored=%d err=%v, want 2 and the backend's error", n, err)
	}
	// Under a context cancelled beforehand nothing is stored and the
	// cancellation is reported, whether an instance was cut short before
	// its race started or inside it.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if n, err := engineOf(Heur(), 8).Warm(cancelled, []*graph.Graph{a, b}, 2); n != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled: stored=%d err=%v, want 0 and context.Canceled", n, err)
	}
}
