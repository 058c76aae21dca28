// Concurrency stress tests: hammer engines of one and of several backends
// from many goroutines under the race detector, asserting cache statistics
// stay consistent and cancelled solves never write into the caches.
package solver

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"respect/internal/graph"
	"respect/internal/sched"
)

// TestCachedConcurrentStress hammers an engine of one and an engine of
// three from many goroutines and holds the memo's statistics to what the
// callers saw. Run in CI with -race -count=5.
func TestCachedConcurrentStress(t *testing.T) {
	for _, names := range [][]string{{"heur"}, {"heur", "compiler", "exact"}} {
		t.Run(names[len(names)-1], func(t *testing.T) {
			backends, err := Resolve(names...)
			if err != nil {
				t.Fatal(err)
			}
			c := NewEngine(backends, 64, PortfolioOptions{})
			graphs := make([]*graph.Graph, 8)
			for i := range graphs {
				graphs[i] = randomDAG(int64(100+i), 12+i)
			}

			const (
				workers = 16
				iters   = 64
			)
			var calls, hits atomic.Uint64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < iters; i++ {
						g := graphs[rng.Intn(len(graphs))]
						res, hit, err := c.Run(context.Background(), g, 3)
						if err != nil {
							t.Errorf("worker %d: %v", seed, err)
							return
						}
						if err := res.Schedule.Validate(g); err != nil {
							t.Errorf("worker %d: invalid schedule: %v", seed, err)
							return
						}
						if res.Truncated {
							t.Errorf("worker %d: heuristics truncated without a deadline", seed)
							return
						}
						calls.Add(1)
						if hit {
							hits.Add(1)
						}
					}
				}(int64(w))
			}
			wg.Wait()

			gotHits, gotMisses := c.Stats()
			if gotHits+gotMisses != calls.Load() {
				t.Fatalf("stats leak: %d hits + %d misses != %d calls", gotHits, gotMisses, calls.Load())
			}
			if gotHits != hits.Load() {
				t.Fatalf("hit accounting differs: stats %d, callers observed %d", gotHits, hits.Load())
			}
			// One key per (graph, stages) pair; concurrent misses on a key may
			// each solve, but the table can never exceed the key universe.
			if c.Len() > len(graphs) {
				t.Fatalf("cache holds %d entries for %d keys", c.Len(), len(graphs))
			}
			// After the churn, every key is warm: a full sweep is all hits.
			before, _ := c.Stats()
			for _, g := range graphs {
				if _, hit, err := c.Run(context.Background(), g, 3); err != nil || !hit {
					t.Fatalf("post-churn sweep: hit=%v err=%v", hit, err)
				}
			}
			after, _ := c.Stats()
			if after-before != uint64(len(graphs)) {
				t.Fatalf("sweep hits = %d, want %d", after-before, len(graphs))
			}
			// Warm on an already-hot cache is a no-op that still reports coverage.
			stored, err := c.Warm(context.Background(), graphs, 3)
			if err != nil {
				t.Fatal(err)
			}
			if stored != len(graphs) {
				t.Fatalf("warm coverage = %d, want %d", stored, len(graphs))
			}
		})
	}
}

// TestCachedNoPostCancellationWrites cancels contexts midway through
// concurrent solves and asserts nothing computed under a dead context is
// ever stored.
func TestCachedNoPostCancellationWrites(t *testing.T) {
	// The inner backend ignores ctx (solves with a background context), so
	// results DO come back after cancellation — the cache must still
	// refuse them because the caller's ctx is dead.
	heurB, err := Lookup("heur")
	if err != nil {
		t.Fatal(err)
	}
	inner := NewFunc("ctx-blind", func(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
		return heurB.Schedule(context.Background(), g, numStages)
	})
	c := engineOf(inner, 64)

	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			g := randomDAG(200+seed, 14)
			ctx, cancel := context.WithCancel(context.Background())
			cancel() // dead before the solve starts
			res, hit, err := c.Run(ctx, g, 3)
			if err != nil || hit {
				t.Errorf("worker %d: hit=%v err=%v", seed, hit, err)
				return
			}
			if err := res.Schedule.Validate(g); err != nil {
				t.Errorf("worker %d: %v", seed, err)
			}
		}(int64(w))
	}
	wg.Wait()
	if c.Len() != 0 {
		t.Fatalf("%d schedules were cached despite cancelled contexts", c.Len())
	}
	if hits, _ := c.Stats(); hits != 0 {
		t.Fatalf("impossible hits: %d", hits)
	}
}

// TestPortfolioStressUnderCancellation races portfolios whose contexts die
// at random points; no run may panic, deadlock, or write a truncated
// result into an Engine.
func TestPortfolioStressUnderCancellation(t *testing.T) {
	backends, err := Resolve("heur", "exact")
	if err != nil {
		t.Fatal(err)
	}
	p := NewEngine(backends, 64, PortfolioOptions{})
	g := randomDAG(999, 24)

	var wg sync.WaitGroup
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 8; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(2000))*time.Microsecond)
				res, _, err := p.Run(ctx, g, 4)
				cancel()
				if err != nil {
					continue // cancelled before any backend finished
				}
				if verr := res.Schedule.Validate(g); verr != nil {
					t.Errorf("worker %d: %v", seed, verr)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()

	// Whatever was cached must be full-effort: replaying each cached key
	// with a generous deadline returns an untruncated result.
	if p.Len() > 0 {
		res, hit, err := p.Run(context.Background(), g, 4)
		if err != nil || !hit {
			t.Fatalf("expected a warm hit, got hit=%v err=%v", hit, err)
		}
		if res.Truncated {
			t.Fatal("a truncated result was cached under cancellation stress")
		}
	}
}
