package solver

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"respect/internal/graph"
	"respect/internal/models"
	"respect/internal/sched"
)

// chain builds a path graph v0 -> v1 -> ... with the given parameter sizes.
func chain(params ...int64) *graph.Graph {
	g := graph.New("chain")
	for i, p := range params {
		g.AddNode(graph.Node{ParamBytes: p, OutBytes: 10})
		if i > 0 {
			g.AddEdge(i-1, i)
		}
	}
	return g.MustBuild()
}

func randomDAG(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(fmt.Sprintf("rand%d", seed))
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{ParamBytes: 1 + int64(rng.Intn(1000)), OutBytes: 1 + int64(rng.Intn(100))})
	}
	for v := 1; v < n; v++ {
		g.AddEdge(rng.Intn(v), v)
	}
	return g.MustBuild()
}

// fixed always returns the given schedule (pre-validated by the caller).
func fixed(name string, s sched.Schedule) Scheduler {
	return NewFunc(name, func(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
		return s.Clone(), nil
	})
}

// engineOf is an engine of one over b.
func engineOf(b Scheduler, capacity int) *Engine {
	return NewEngine([]Scheduler{b}, capacity, PortfolioOptions{})
}

// runSchedule runs e and returns the schedule alone.
func runSchedule(t *testing.T, e *Engine, g *graph.Graph, numStages int) sched.Schedule {
	t.Helper()
	res, _, err := e.Run(context.Background(), g, numStages)
	if err != nil {
		t.Fatal(err)
	}
	return res.Schedule
}

// blocker blocks until its context is cancelled, then reports the ctx
// error; it records that it observed cancellation.
type blocker struct {
	cancelled chan struct{}
}

func (b *blocker) Name() string { return "blocker" }
func (b *blocker) Schedule(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
	<-ctx.Done()
	close(b.cancelled)
	return sched.Schedule{}, ctx.Err()
}

// TestRegistryBuiltins: the default registry holds exactly the backends a
// request can be served by, sorted; the paper's timing baselines (the full
// compiler flow, the generic MILP) are called directly where they are
// timed.
func TestRegistryBuiltins(t *testing.T) {
	want := []string{"compiler", "exact", "exact-ilp-grade", "heur"}
	if names := Names(); !slices.Equal(names, want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
}

func TestRegistryErrors(t *testing.T) {
	r := NewRegistry()
	s := fixed("x", sched.NewSchedule(0, 1))
	if err := r.Register(s); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(s); err == nil {
		t.Fatal("duplicate Register should fail")
	}
	if err := r.Replace(s); err != nil {
		t.Fatalf("Replace should overwrite: %v", err)
	}
	if _, err := r.Lookup("nope"); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("unknown lookup error = %v", err)
	}
	if _, err := r.Resolve("x", "nope"); err == nil {
		t.Fatal("Resolve with unknown name should fail")
	}
	if err := r.Register(NewFunc("", nil)); err == nil {
		t.Fatal("empty name should fail")
	}
	got, err := r.Lookup("x")
	if err != nil || got.Name() != "x" {
		t.Fatalf("Lookup = %v, %v", got, err)
	}
}

func TestBuiltinBackendsProduceValidSchedules(t *testing.T) {
	// Small enough that the generic MILP backend closes quickly.
	g := randomDAG(1, 10)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, name := range Names() {
		b, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := b.Schedule(ctx, g, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Validate(g); err != nil {
			t.Fatalf("%s: invalid schedule: %v", name, err)
		}
		if !s.SameStageChildrenOK(g) {
			t.Fatalf("%s: schedule not deployment-ready (children rule violated)", name)
		}
	}
}

func TestPortfolioPicksMinCost(t *testing.T) {
	g := chain(100, 100, 100, 100)
	// Bad: everything in one stage (peak 400). Good: perfectly split.
	bad := sched.Schedule{NumStages: 2, Stage: []int{0, 0, 0, 0}}
	good := sched.Schedule{NumStages: 2, Stage: []int{0, 0, 1, 1}}
	res, err := Portfolio(context.Background(), []Scheduler{fixed("bad", bad), fixed("good", good)}, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "good" {
		t.Fatalf("winner = %q, want good", res.Backend)
	}
	if res.Cost.PeakParamBytes != 200 {
		t.Fatalf("winning peak = %d, want 200", res.Cost.PeakParamBytes)
	}
	if len(res.Outcomes) != 2 || res.Outcomes[0].Backend != "bad" || res.Outcomes[1].Backend != "good" {
		t.Fatalf("outcomes not in input order: %+v", res.Outcomes)
	}
	if res.Outcomes[0].Winner || !res.Outcomes[1].Winner {
		t.Fatalf("winner flags wrong: %+v", res.Outcomes)
	}
}

func TestPortfolioBeatsEveryMember(t *testing.T) {
	g := randomDAG(7, 20)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	backends, err := Resolve("heur", "compiler", "exact")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Portfolio(ctx, backends, g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range backends {
		s, err := b.Schedule(ctx, g, 4)
		if err != nil {
			t.Fatal(err)
		}
		if c := s.Evaluate(g); c.Less(res.Cost) {
			t.Fatalf("portfolio cost %v worse than member %s's %v", res.Cost, b.Name(), c)
		}
	}
}

func TestPortfolioCancelsLosers(t *testing.T) {
	g := chain(50, 50)
	good := sched.Schedule{NumStages: 2, Stage: []int{0, 1}}
	slow := &blocker{cancelled: make(chan struct{})}

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := PortfolioOpt(ctx, []Scheduler{fixed("fast", good), slow}, g, 2,
		PortfolioOptions{Patience: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("portfolio took %v; patience should have cut the blocked loser", elapsed)
	}
	if res.Backend != "fast" {
		t.Fatalf("winner = %q", res.Backend)
	}
	select {
	case <-slow.cancelled:
	case <-time.After(time.Second):
		t.Fatal("losing backend never saw cancellation")
	}
	lost := res.Outcomes[1]
	if !errors.Is(lost.Err, context.Canceled) {
		t.Fatalf("loser outcome err = %v, want context.Canceled", lost.Err)
	}
}

func TestPortfolioDeadlineReturnsIncumbents(t *testing.T) {
	// Under a deadline, the anytime exact backend must return its incumbent
	// and the portfolio must complete within (about) the deadline.
	g, err := models.Load("ResNet152")
	if err != nil {
		t.Fatal(err)
	}
	backends, err := Resolve("heur", "exact-ilp-grade")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	res, err := Portfolio(ctx, backends, g, 6)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("portfolio overran its deadline: %v", elapsed)
	}
	if err := res.Schedule.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestPortfolioAllFail(t *testing.T) {
	g := chain(10, 10)
	boom := NewFunc("boom", func(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
		return sched.Schedule{}, errors.New("boom")
	})
	// An invalid schedule (dependency violation) must be excluded too.
	invalid := fixed("invalid", sched.Schedule{NumStages: 2, Stage: []int{1, 0}})
	_, err := Portfolio(context.Background(), []Scheduler{boom, invalid}, g, 2)
	if err == nil {
		t.Fatal("want error when every backend fails")
	}
	if _, err := Portfolio(context.Background(), nil, g, 2); err == nil {
		t.Fatal("want error for an empty portfolio")
	}
}

// TestStageCountBelowOneRefused: a race, an engine solve and a batch item
// with fewer than one stage are errors, and no backend is started. Left
// to the backends, exact would solve one stage and call it proven and
// heur would panic.
func TestStageCountBelowOneRefused(t *testing.T) {
	g := randomDAG(7, 12)
	var calls atomic.Int64
	counting := NewFunc("counting", func(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
		calls.Add(1)
		return sched.Schedule{}, errors.New("counting backend")
	})
	members := []Scheduler{counting, Heur(), Exact()}
	e := NewEngine(members, 8, PortfolioOptions{})
	for _, stages := range []int{0, -1} {
		if res, err := Portfolio(context.Background(), members, g, stages); err == nil {
			t.Errorf("%d stages: race returned %d-stage schedule from %q without an error", stages, res.Schedule.NumStages, res.Backend)
		}
		if _, err := Portfolio(context.Background(), []Scheduler{Exact()}, g, stages); err == nil {
			t.Errorf("%d stages: exact alone returned no error", stages)
		}
		if _, _, err := e.Run(context.Background(), g, stages); err == nil {
			t.Errorf("%d stages: engine solve returned no error", stages)
		}
		results, err := Batch(context.Background(), e, []*graph.Graph{g, chain(6, 5)}, stages, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r.Err == nil {
				t.Errorf("%d stages: batch item %d has no error", stages, i)
			}
		}
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("a backend started %d times on a stage count below 1", n)
	}
}

// TestRefusedStageCountIsNoCacheTraffic: a call the engine refuses for
// its stage count never reaches the memo, so it counts neither a hit nor
// a miss, alone or in a batch.
func TestRefusedStageCountIsNoCacheTraffic(t *testing.T) {
	e := NewEngine([]Scheduler{Heur()}, 8, PortfolioOptions{})
	g := randomDAG(7, 12)
	for _, stages := range []int{0, -1} {
		if _, _, err := e.Run(context.Background(), g, stages); err == nil {
			t.Fatalf("%d stages: engine solve returned no error", stages)
		}
		if _, err := Batch(context.Background(), e, []*graph.Graph{g, g, chain(6, 5)}, stages, 2); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := e.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("refused calls counted %d hits and %d misses, want 0 and 0", hits, misses)
	}
}

// TestPanickingBackendLosesTheRace: a backend that panics, on the race's
// goroutine or on the caller's, costs that backend the solve and nothing
// else; the outcome table says what it panicked with.
func TestPanickingBackendLosesTheRace(t *testing.T) {
	g := randomDAG(7, 12)
	heurB, err := Lookup("heur")
	if err != nil {
		t.Fatal(err)
	}
	faulty := NewFunc("faulty", func(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
		var table []int
		return sched.Schedule{}, fmt.Errorf("unreachable: %d", table[g.NumNodes()])
	})
	res, err := Portfolio(context.Background(), []Scheduler{faulty, heurB}, g, 3)
	if err != nil {
		t.Fatalf("the race failed with a healthy member in it: %v", err)
	}
	if !res.Outcomes[1].Winner {
		t.Fatalf("heur did not win: %+v", res.Outcomes)
	}
	var panicked *PanicError
	if o := res.Outcomes[0]; !errors.As(o.Err, &panicked) || panicked.Backend != "faulty" ||
		!strings.Contains(o.Err.Error(), `backend "faulty" panicked`) || !strings.Contains(o.Err.Error(), "index out of range") {
		t.Fatalf("the faulty member's outcome is %+v, want a PanicError naming it and the fault", o)
	}

	// Alone it runs on the caller's goroutine; the caller gets an error.
	_, err = Portfolio(context.Background(), []Scheduler{faulty}, g, 3)
	if !errors.As(err, &panicked) {
		t.Fatalf("a race of one panicking backend returned %v, want a wrapped PanicError", err)
	}
}

func TestBatchPreservesOrder(t *testing.T) {
	heurB, err := Lookup("heur")
	if err != nil {
		t.Fatal(err)
	}
	graphs := make([]*graph.Graph, 16)
	for i := range graphs {
		graphs[i] = randomDAG(int64(i), 6+i)
	}
	for _, jobs := range []int{1, 4, 32} {
		results, err := Batch(context.Background(), engineOf(heurB, 64), graphs, 3, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(graphs) {
			t.Fatalf("jobs=%d: %d results", jobs, len(results))
		}
		for i, r := range results {
			if r.Index != i || r.Graph != graphs[i] {
				t.Fatalf("jobs=%d: result %d out of order (index %d, graph %p)", jobs, i, r.Index, r.Graph)
			}
			if r.Err != nil {
				t.Fatalf("jobs=%d: item %d: %v", jobs, i, r.Err)
			}
			if err := r.Schedule.Validate(graphs[i]); err != nil {
				t.Fatalf("jobs=%d: item %d invalid: %v", jobs, i, err)
			}
		}
	}
	// Identical results regardless of parallelism.
	seq, _ := Batch(context.Background(), engineOf(heurB, 64), graphs, 3, 1)
	par, _ := Batch(context.Background(), engineOf(heurB, 64), graphs, 3, 8)
	for i := range seq {
		if seq[i].Cost != par[i].Cost {
			t.Fatalf("item %d: cost differs across jobs (%v vs %v)", i, seq[i].Cost, par[i].Cost)
		}
	}
}

func TestBatchCancellation(t *testing.T) {
	slow := NewFunc("slow", func(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
		select {
		case <-ctx.Done():
			return sched.Schedule{}, ctx.Err()
		case <-time.After(10 * time.Second):
			return sched.Schedule{NumStages: numStages, Stage: make([]int, g.NumNodes())}, nil
		}
	})
	graphs := []*graph.Graph{chain(1, 2), chain(3, 4), chain(5, 6), chain(7, 8)}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	results, err := Batch(ctx, engineOf(slow, 8), graphs, 2, 2)
	if err == nil {
		t.Fatal("want ctx error")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("batch did not honor cancellation")
	}
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("item %d should have failed", i)
		}
	}
}

func TestCachedHitReturnsIdenticalSchedule(t *testing.T) {
	calls := 0
	inner := NewFunc("counted", func(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
		calls++
		s, err := Lookup("heur")
		if err != nil {
			return sched.Schedule{}, err
		}
		return s.Schedule(ctx, g, numStages)
	})
	c := engineOf(inner, 8)
	g := randomDAG(3, 15)

	s1 := runSchedule(t, c, g, 4)
	s2 := runSchedule(t, c, g, 4)
	if calls != 1 {
		t.Fatalf("inner called %d times, want 1", calls)
	}
	if s1.NumStages != s2.NumStages || len(s1.Stage) != len(s2.Stage) {
		t.Fatal("cached schedule shape differs")
	}
	for v := range s1.Stage {
		if s1.Stage[v] != s2.Stage[v] {
			t.Fatalf("cached schedule differs at node %d", v)
		}
	}
	// Mutating the returned schedule must not poison the cache.
	s2.Stage[0] = s2.NumStages - 1
	s3 := runSchedule(t, c, g, 4)
	if s3.Stage[0] != s1.Stage[0] {
		t.Fatal("cache entry was mutated through a returned schedule")
	}
	// A different stage count is a different key.
	runSchedule(t, c, g, 5)
	if calls != 2 {
		t.Fatalf("inner called %d times after new stage count, want 2", calls)
	}
	if hits, misses := c.Stats(); hits != 2 || misses != 2 {
		t.Fatalf("stats = %d hits / %d misses, want 2/2", hits, misses)
	}
}

// truncating reports every result as a budget-cut incumbent.
type truncating struct{ calls int }

func (tr *truncating) Name() string { return "truncating" }
func (tr *truncating) Schedule(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
	s, _, err := tr.ScheduleInfo(ctx, g, numStages)
	return s, err
}
func (tr *truncating) ScheduleInfo(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, Info, error) {
	tr.calls++
	return sched.NewSchedule(g.NumNodes(), numStages), Info{Truncated: true}, nil
}

func TestCachedRefusesTruncatedIncumbents(t *testing.T) {
	inner := &truncating{}
	c := engineOf(inner, 8)
	g := chain(5, 5)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, hit, err := c.Run(ctx, g, 2); err != nil || hit {
			t.Fatalf("call %d: hit=%v err=%v; truncated incumbents must never be cached", i, hit, err)
		}
	}
	if inner.calls != 3 {
		t.Fatalf("inner called %d times, want 3 (no caching)", inner.calls)
	}
	// A result computed under an already-expired context must not be
	// cached either, even when the backend reports no truncation.
	heurB, _ := Lookup("heur")
	c2 := engineOf(NewFunc("expired", func(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
		return heurB.Schedule(context.Background(), g, numStages)
	}), 8)
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if res, _, err := c2.Run(expired, g, 2); err != nil || !res.Truncated {
		t.Fatalf("err=%v truncated=%v; a schedule handed back under a dead context is a flagged incumbent", err, res.Truncated)
	}
	if c2.Len() != 0 {
		t.Fatal("result solved under a cancelled context was cached")
	}
}

func TestExactBackendReportsInfo(t *testing.T) {
	g := randomDAG(41, 12)
	b, _ := Lookup("exact")
	s, info, err := ScheduleInfo(context.Background(), b, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
	if !info.OptimalityProven || info.Truncated {
		t.Fatalf("unbounded exact solve on a 12-node DAG should prove optimality, got %+v", info)
	}
	// Pre-cancelled context: the anytime incumbent comes back truncated.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, info, err = ScheduleInfo(cctx, b, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Truncated || info.OptimalityProven {
		t.Fatalf("cancelled exact solve must report truncation, got %+v", info)
	}
}

func TestCachedEviction(t *testing.T) {
	heurB, _ := Lookup("heur")
	c := engineOf(heurB, 2)
	g1, g2, g3 := randomDAG(11, 8), randomDAG(12, 9), randomDAG(13, 10)
	for _, g := range []*graph.Graph{g1, g2, g3} {
		runSchedule(t, c, g, 3)
	}
	if c.Len() != 2 {
		t.Fatalf("cache len = %d, want 2", c.Len())
	}
	// g1 is the LRU victim: scheduling it again must miss.
	runSchedule(t, c, g1, 3)
	if hits, misses := c.Stats(); hits != 0 || misses != 4 {
		t.Fatalf("stats = %d/%d, want 0 hits 4 misses", hits, misses)
	}
}

func TestBatchReportsCacheHits(t *testing.T) {
	heurB, _ := Lookup("heur")
	c := engineOf(heurB, 8)
	g := randomDAG(21, 12)
	graphs := []*graph.Graph{g, g, g, g}
	results, err := Batch(context.Background(), c, graphs, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].CacheHit {
		t.Fatal("first solve should miss")
	}
	for i := 1; i < len(results); i++ {
		if !results[i].CacheHit {
			t.Fatalf("item %d should hit the cache", i)
		}
	}
}

func TestBatchDedupsDuplicateFingerprints(t *testing.T) {
	heurB, _ := Lookup("heur")
	c := engineOf(heurB, 8)
	a, b := randomDAG(41, 14), randomDAG(42, 14)
	graphs := []*graph.Graph{a, b, a, a, b}
	results, err := Batch(context.Background(), c, graphs, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
	}
	for _, i := range []int{0, 1} {
		if results[i].Deduped {
			t.Fatalf("representative %d marked deduped", i)
		}
	}
	for _, i := range []int{2, 3, 4} {
		if !results[i].Deduped || !results[i].CacheHit {
			t.Fatalf("duplicate %d: Deduped=%v CacheHit=%v", i, results[i].Deduped, results[i].CacheHit)
		}
	}
	// Duplicates carry the representative's exact schedule and cost.
	if results[2].Cost != results[0].Cost || results[4].Cost != results[1].Cost {
		t.Fatal("duplicate cost diverges from representative")
	}
	for v := range results[0].Schedule.Stage {
		if results[2].Schedule.Stage[v] != results[0].Schedule.Stage[v] {
			t.Fatalf("duplicate schedule diverges at node %d", v)
		}
	}
	// Deduped duplicates never reached the backend — the cache solved
	// exactly two distinct instances (both misses) — but each dedup fill
	// still counts as a hit, so Stats is independent of the optimization.
	if hits, misses := c.Stats(); hits != 3 || misses != 2 {
		t.Fatalf("cache saw hits=%d misses=%d, want 3/2", hits, misses)
	}
	// A mutated duplicate's schedule must not alias the representative's.
	results[2].Schedule.Stage[0] = -99
	if results[0].Schedule.Stage[0] == -99 {
		t.Fatal("duplicate schedule aliases representative storage")
	}
}
