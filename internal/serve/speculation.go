package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"respect/internal/graph"
	"respect/internal/solver"
	"respect/internal/speculate"
)

// SpeculationConfig tunes speculative warm-cache scheduling: a background
// subsystem that tracks per-instance request popularity, listens to the
// schedule caches' eviction hooks, and pre-schedules hot instances and
// their likely mutations into every warm-marked class's cache while
// admission occupancy stays below a watermark. Zero values select the
// speculate package defaults.
type SpeculationConfig struct {
	// Enabled turns speculative warming on. Off, the serving path pays no
	// speculation cost at all.
	Enabled bool
	// Watermark is the admission occupancy — (active + queued) work over
	// the class concurrency limit — at or above which speculation yields
	// entirely (default 0.5). Must be in (0, 1] when set.
	Watermark float64
	// Budget bounds speculative solves per scan pass (default 4).
	Budget int
	// Interval is the scan period (default 500ms).
	Interval time.Duration
	// TopK bounds hot keys considered per pass (default 8).
	TopK int
}

// engineTarget adapts one class's memoizing engine to the
// speculate.Target interface. Warm reports stored=false for truncated or
// failed races — the engine itself never caches those, so Contains after
// Run is the honest answer.
type engineTarget struct {
	eng *solver.Engine
}

// Contains implements speculate.Target.
func (t engineTarget) Contains(g *graph.Graph, numStages int) bool {
	return t.eng.Contains(g, numStages)
}

// Warm implements speculate.Target. A race hit means the key was cached
// organically (demand traffic or zoo warm-up beat the speculator to it):
// stored is false then, so the key is never misattributed to speculation.
func (t engineTarget) Warm(ctx context.Context, g *graph.Graph, numStages int) (bool, error) {
	_, hit, err := t.eng.Run(ctx, g, numStages)
	if err != nil {
		return false, err
	}
	return !hit && t.eng.Contains(g, numStages), nil
}

// initSpeculation builds one Speculator per warm-marked class, wires the
// eviction hooks and popularity-aware eviction ordering into the class
// engines, and registers the speculation metric families. Called by New
// after initMetrics; a no-op when speculation is disabled.
func (s *Server) initSpeculation() error {
	sc := s.cfg.Speculation
	if !sc.Enabled {
		return nil
	}
	for class, st := range s.classes {
		if !st.policy.Warm {
			continue
		}
		adm, maxConc := st.adm, st.policy.MaxConcurrent
		sp, err := speculate.New(speculate.Config{
			Target: engineTarget{st.engine},
			Occupancy: func() float64 {
				return float64(adm.active()+adm.queued()) / float64(maxConc)
			},
			Watermark:   sc.Watermark,
			Budget:      sc.Budget,
			Interval:    sc.Interval,
			TopK:        sc.TopK,
			SolveBudget: st.policy.Budget,
			Logf:        s.logf,
		})
		if err != nil {
			return fmt.Errorf("serve: class %q: %w", class, err)
		}
		st.spec = sp
		// Evicted hot entries become re-admission candidates, and the
		// class cache prefers evicting unpopular entries over popular
		// ones — the loop from observability signals back into
		// scheduling decisions.
		st.engine.OnEvict(sp.ObserveEviction)
		st.engine.SetEvictionScorer(sp.PopularityScore)
		s.speculators = append(s.speculators, sp)
	}
	if len(s.speculators) == 0 {
		return fmt.Errorf("serve: speculation enabled but no class has Warm set")
	}

	// Scrape-time closures sum per-speculator atomics directly — no
	// speculator lock is taken on the exposition path.
	sum := func(read func(*speculate.Speculator) uint64) func() float64 {
		return func() float64 {
			var total uint64
			for _, sp := range s.speculators {
				total += read(sp)
			}
			return float64(total)
		}
	}
	warms := s.reg.CounterVec("respect_speculative_warms_total",
		"Cache entries warmed speculatively, by trigger reason (evicted, popular or mutation).",
		"reason")
	for _, reason := range []string{speculate.ReasonEvicted, speculate.ReasonPopular, speculate.ReasonMutation} {
		reason := reason
		warms.Func(sum(func(sp *speculate.Speculator) uint64 { return sp.WarmCount(reason) }), reason)
	}
	s.reg.CounterFunc("respect_speculative_hits_total",
		"Requests served from a cache entry that speculation warmed.",
		sum((*speculate.Speculator).HitCount))
	s.reg.CounterFunc("respect_speculative_skipped_total",
		"Speculative candidates dropped because admission occupancy was at or above the watermark.",
		sum((*speculate.Speculator).SkippedCount))
	return nil
}

// SpeculationStats aggregates every class speculator's counters; the zero
// value is returned when speculation is disabled.
func (s *Server) SpeculationStats() speculate.Stats {
	var out speculate.Stats
	for _, sp := range s.speculators {
		st := sp.Stats()
		out.TrackedKeys += st.TrackedKeys
		out.Passes += st.Passes
		out.Attempts += st.Attempts
		out.WarmsEvicted += st.WarmsEvicted
		out.WarmsPopular += st.WarmsPopular
		out.WarmsMutation += st.WarmsMutation
		out.SkippedWatermark += st.SkippedWatermark
		out.SpeculativeEntries += st.SpeculativeEntries
		out.Hits += st.Hits
	}
	return out
}

// runSpeculators starts every class speculator's background loop and
// returns a stop function that cancels and awaits them; Run calls it so
// no speculative solve outlives the service.
func (s *Server) runSpeculators(ctx context.Context) (stop func()) {
	if len(s.speculators) == 0 {
		return func() {}
	}
	specCtx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for _, sp := range s.speculators {
		wg.Add(1)
		go func(sp *speculate.Speculator) {
			defer wg.Done()
			sp.Run(specCtx)
		}(sp)
	}
	return func() {
		cancel()
		wg.Wait()
	}
}
