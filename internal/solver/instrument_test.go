package solver

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"respect/internal/graph"
	"respect/internal/metrics"
)

// chainGraph builds an n-node path graph with distinct per-node weights,
// so different n produce different fingerprints.
func chainGraph(t *testing.T, name string, n int) *graph.Graph {
	t.Helper()
	g := graph.New(name)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{Name: fmt.Sprintf("%s%d", name, i), ParamBytes: int64(50*i + 7), OutBytes: 5})
		if i > 0 {
			g.AddEdge(i-1, i)
		}
	}
	g.MustBuild()
	return g
}

func expositionOf(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestInstrumentedEngine(t *testing.T) {
	reg := metrics.NewRegistry()
	ins := NewInstruments(reg, nil)
	backends, err := Resolve("heur", "compiler")
	if err != nil {
		t.Fatal(err)
	}
	p := NewEngine(backends, 8, PortfolioOptions{})
	p.Instrument(ins, "interactive")

	g := chainGraph(t, "ins", 6)
	for i := 0; i < 3; i++ { // 1 miss (one race), then 2 hits (no race)
		if _, _, err := p.Run(context.Background(), g, 3); err != nil {
			t.Fatal(err)
		}
	}

	page := expositionOf(t, reg)
	for _, want := range []string{
		`respect_schedule_cache_ops_total{cache="interactive",op="hit"} 2`,
		`respect_schedule_cache_ops_total{cache="interactive",op="miss"} 1`,
		`respect_schedule_cache_ops_total{cache="interactive",op="evict"} 0`,
		`respect_backend_schedule_duration_seconds_count{engine="interactive",backend="heur"} 1`,
		`respect_backend_schedule_duration_seconds_count{engine="interactive",backend="compiler"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Exactly one race ran, so wins across the portfolio must sum to 1 and
	// every member was observed once (win or loss).
	hits, misses := p.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("stats (%d hits, %d misses), want (2, 1)", hits, misses)
	}
	winSum := 0
	for _, b := range []string{"heur", "compiler"} {
		if strings.Contains(page, fmt.Sprintf(`respect_portfolio_wins_total{engine="interactive",backend="%s"} 1`, b)) {
			winSum++
		}
	}
	if winSum != 1 {
		t.Fatalf("portfolio wins sum to %d, want exactly 1\n%s", winSum, page)
	}
}

// TestEvictionHookCountsEvictions fills a capacity-1 memo cache with two
// distinct instances: the second put must evict the first, feeding both
// the LRU's own eviction counter and the hook-driven metrics counter.
func TestEvictionHookCountsEvictions(t *testing.T) {
	reg := metrics.NewRegistry()
	ins := NewInstruments(reg, nil)
	heur, err := Lookup("heur")
	if err != nil {
		t.Fatal(err)
	}
	c := engineOf(heur, 1)
	c.Instrument(ins, "tiny")

	g1, g2 := chainGraph(t, "ev-a", 4), chainGraph(t, "ev-b", 5)
	for _, g := range []*graph.Graph{g1, g2} {
		runSchedule(t, c, g, 2)
	}
	if c.Len() != 1 {
		t.Fatalf("capacity-1 cache holds %d entries", c.Len())
	}
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions())
	}
	page := expositionOf(t, reg)
	if !strings.Contains(page, `respect_schedule_cache_ops_total{cache="tiny",op="evict"} 1`) {
		t.Fatalf("hook-driven eviction counter missing:\n%s", page)
	}
}

// TestCacheSetZeroCapacityRegression guards the LRU capacity
// normalization: a CacheSet configured with capacity 0 (or negative) must
// build working default-capacity caches, not pathological always-evicting
// ones.
func TestCacheSetZeroCapacityRegression(t *testing.T) {
	for _, capacity := range []int{0, -3} {
		cs := NewCacheSet(Default(), capacity)
		c, err := cs.For("heur")
		if err != nil {
			t.Fatal(err)
		}
		g := chainGraph(t, "zerocap", 5)
		runSchedule(t, c, g, 2)
		if c.Len() != 1 {
			t.Fatalf("capacity %d: schedule not retained (len=%d): capacity guard lost", capacity, c.Len())
		}
		if _, hit, err := c.Run(context.Background(), g, 2); err != nil || !hit {
			t.Fatalf("capacity %d: repeat lookup hit=%v err=%v, want a cache hit", capacity, hit, err)
		}
		if ev := c.Evictions(); ev != 0 {
			t.Fatalf("capacity %d: %d spurious evictions", capacity, ev)
		}
	}

	// The same guard must hold for an engine built directly.
	backends, err := Resolve("heur")
	if err != nil {
		t.Fatal(err)
	}
	p := NewEngine(backends, 0, PortfolioOptions{})
	g := chainGraph(t, "zerocap-p", 6)
	if _, _, err := p.Run(context.Background(), g, 2); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 1 {
		t.Fatalf("portfolio memo lost its only entry (len=%d)", p.Len())
	}
	if _, hit, err := p.Run(context.Background(), g, 2); err != nil || !hit {
		t.Fatalf("portfolio repeat hit=%v err=%v, want a hit", hit, err)
	}
}

// TestOutcomeStartedOffsets checks the race timeline fields: every
// outcome starts at a non-negative offset and the offsets are small
// relative to elapsed solve time bookkeeping (they measure goroutine
// spawn delay, not solve time).
func TestOutcomeStartedOffsets(t *testing.T) {
	backends, err := Resolve("heur", "compiler", "exact")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Portfolio(context.Background(), backends, chainGraph(t, "started", 7), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outcomes {
		if o.Started < 0 {
			t.Fatalf("%s: negative start offset %v", o.Backend, o.Started)
		}
		if o.Elapsed < 0 {
			t.Fatalf("%s: negative elapsed %v", o.Backend, o.Elapsed)
		}
	}
}
