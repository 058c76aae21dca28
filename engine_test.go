package respect

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"respect/internal/solver"
)

func TestBackendsRegistry(t *testing.T) {
	names := Backends()
	if len(names) == 0 {
		t.Fatal("no backends registered")
	}
	for _, want := range []string{"exact", "exact-ilp-grade", "heur", "compiler"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("backend %q missing (have %v)", want, names)
		}
	}
	if _, err := LookupBackend("definitely-not-a-backend"); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// TestSchedulePortfolioAcceptance is the tentpole acceptance check:
// SchedulePortfolio over {rl, heur, exact} on a model-zoo graph returns a
// schedule at least as cheap as every individual backend, within the
// given deadline.
func TestSchedulePortfolioAcceptance(t *testing.T) {
	a := quickAgent(t)
	if err := a.RegisterBackends(); err != nil {
		t.Fatal(err)
	}
	g, err := LoadModel("ResNet50")
	if err != nil {
		t.Fatal(err)
	}

	deadline := 30 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	res, err := SchedulePortfolio(ctx, g, 4, "rl", "heur", "exact")
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > deadline+2*time.Second {
		t.Fatalf("portfolio overran the deadline: %v", elapsed)
	}
	if err := res.Schedule.Validate(g); err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 3 {
		t.Fatalf("%d outcomes", len(res.Outcomes))
	}
	// The portfolio's pick must be <= every member's own result.
	for _, name := range []string{"rl", "heur", "exact"} {
		b, err := LookupBackend(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := b.Schedule(ctx, g, 4)
		if err != nil {
			t.Fatal(err)
		}
		if c := s.Evaluate(g); c.Less(res.Cost) {
			t.Fatalf("portfolio (%v via %s) worse than %s alone (%v)", res.Cost, res.Backend, name, c)
		}
	}
}

// TestRegisterBackendsRebinds: an agent registers rl and rl-sampled
// beside the built-ins, and registering one again drops the schedules
// the facade cached for the previous binding.
func TestRegisterBackendsRebinds(t *testing.T) {
	a := quickAgent(t)
	if err := a.RegisterBackends(); err != nil {
		t.Fatal(err)
	}
	names := Backends()
	for _, want := range []string{"rl", "rl-sampled", "heur", "exact"} {
		if !slices.Contains(names, want) {
			t.Fatalf("backend %q missing (have %v)", want, names)
		}
	}
	for _, gone := range []string{"rl-beam", "dp"} {
		if slices.Contains(names, gone) {
			t.Fatalf("backend %q still registered (have %v)", gone, names)
		}
	}
	g, _ := LoadModel("MobileNet")
	if _, err := ScheduleWith(context.Background(), "rl", g, 4); err != nil {
		t.Fatal(err)
	}
	cached := func() bool {
		t.Helper()
		e, err := scheduleCaches.For("rl")
		if err != nil {
			t.Fatal(err)
		}
		return e.Contains(g, 4)
	}
	if !cached() {
		t.Fatal("the rl schedule was not cached")
	}
	if err := a.RegisterBackends(); err != nil {
		t.Fatal(err)
	}
	if cached() {
		t.Fatal("a schedule of the previous binding survived RegisterBackends")
	}
}

func TestScheduleBatchFacade(t *testing.T) {
	ResetScheduleCache()
	g1, _ := LoadModel("Xception")
	g2, _ := LoadModel("ResNet50")
	graphs := []*Graph{g1, g2, g1, g2, g1}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	results, err := ScheduleBatch(ctx, graphs, 4, "heur", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(graphs) {
		t.Fatalf("%d results", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		if r.Graph != graphs[i] {
			t.Fatalf("item %d out of order", i)
		}
		if err := r.Schedule.Validate(graphs[i]); err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	// Graphs repeat, so the fingerprint cache must have hits.
	hits, misses := ScheduleCacheStats("heur")
	if misses == 0 || hits == 0 {
		t.Fatalf("cache stats = %d hits / %d misses; want both nonzero for repeated graphs", hits, misses)
	}
	// Identical graphs must get identical schedules.
	for v := range results[0].Schedule.Stage {
		if results[0].Schedule.Stage[v] != results[2].Schedule.Stage[v] {
			t.Fatal("cache returned a different schedule for an identical graph")
		}
	}
}

func TestScheduleWithUnknownBackend(t *testing.T) {
	g, _ := LoadModel("Xception")
	if _, err := ScheduleWith(context.Background(), "nope", g, 4); err == nil {
		t.Fatal("unknown backend accepted")
	}
	s, err := ScheduleWith(context.Background(), "compiler", g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
}

// customBackends numbers the backends TestCustomBackendRegistration
// registers, so every run (-count=N) registers a name of its own in the
// process-wide registry.
var customBackends atomic.Int64

func TestCustomBackendRegistration(t *testing.T) {
	compilerFn := func(ctx context.Context, g *Graph, numStages int) (Schedule, error) {
		return ScheduleCompiler(g, numStages), nil
	}
	r := solver.NewRegistry()
	if err := r.Register(NewBackend("custom-test-backend", compilerFn)); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(NewBackend("custom-test-backend", compilerFn)); err == nil {
		t.Fatal("duplicate registration accepted")
	}

	name := fmt.Sprintf("custom-test-backend-%d", customBackends.Add(1))
	if err := RegisterBackend(NewBackend(name, compilerFn)); err != nil {
		t.Fatal(err)
	}
	g, _ := LoadModel("Xception")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := SchedulePortfolio(ctx, g, 4, name, "heur")
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(g); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleWithRejectsInvalidSchedules: a registered backend that
// hands back an out-of-range assignment is an error on both facade paths,
// and nothing it returned is cached — every call solves again.
func TestScheduleWithRejectsInvalidSchedules(t *testing.T) {
	var calls atomic.Int64
	bad := NewBackend("invalid-stage-backend", func(ctx context.Context, g *Graph, numStages int) (Schedule, error) {
		calls.Add(1)
		s := ScheduleCompiler(g, numStages)
		s.Stage[0] = numStages // one past the last stage
		return s, nil
	})
	if err := solver.Default().Replace(bad); err != nil {
		t.Fatal(err)
	}
	g, _ := LoadModel("MobileNet")
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if s, err := ScheduleWith(ctx, bad.Name(), g, 4); err == nil {
			t.Fatalf("call %d: invalid schedule %v returned without an error", i, s.Stage[:4])
		}
	}
	results, err := ScheduleBatch(ctx, []*Graph{g}, 4, bad.Name(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Fatal("batch item carries an invalid schedule without an error")
	}
	if calls.Load() != 3 {
		t.Fatalf("backend solved %d times over 3 calls: an invalid schedule was served from cache", calls.Load())
	}
	if e, err := scheduleCaches.For(bad.Name()); err != nil || e.Contains(g, 4) {
		t.Fatalf("invalid schedule cached (err=%v)", err)
	}
}

// TestFacadeRefusesStageCountBelowOne: the facade's races and batches
// report a stage count below 1 as an error instead of serving a
// one-stage schedule.
func TestFacadeRefusesStageCountBelowOne(t *testing.T) {
	g, _ := LoadModel("MobileNet")
	ctx := context.Background()
	if res, err := SchedulePortfolio(ctx, g, 0, "heur", "exact"); err == nil {
		t.Fatalf("SchedulePortfolio returned a %d-stage schedule from %q without an error", res.Schedule.NumStages, res.Backend)
	}
	results, err := ScheduleBatch(ctx, []*Graph{g}, 0, "exact", 1)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Fatalf("ScheduleBatch item returned a %d-stage schedule without an error", results[0].Schedule.NumStages)
	}
}

func TestNewServerFacade(t *testing.T) {
	srv, err := NewServer(ServeConfig{Stages: 4, WarmModels: []string{"MobileNet"}})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := srv.WarmUp(context.Background()); err != nil || n < 1 {
		t.Fatalf("warm-up: n=%d err=%v", n, err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/schedule", "application/json",
		strings.NewReader(`{"model":"MobileNet","class":"interactive"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		CacheHit bool  `json:"cache_hit"`
		Stage    []int `json:"stage"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !out.CacheHit || len(out.Stage) == 0 {
		t.Fatalf("status=%d cache_hit=%v stages=%d", resp.StatusCode, out.CacheHit, len(out.Stage))
	}
	if st := srv.Stats(); st.WarmedSchedules < 1 {
		t.Fatalf("stats warmed = %d", st.WarmedSchedules)
	}
}
