package solver

import (
	"context"
	"runtime"

	"respect/internal/graph"
	"respect/internal/sched"
)

// Engine memoizes portfolio races by graph fingerprint and stage count,
// preserving per-backend telemetry; a single backend is an engine of one.
// A hit returns the stored race result in O(1) (with a defensively copied
// schedule); a miss races the backends and stores the result unless it
// was budget-truncated — a cut incumbent is only as good as the call's
// deadline and must not shadow a later full-effort race. Only validated
// schedules are ever stored: the race excludes invalid ones. This is the
// serving layer's per-request-class engine (warmed from the model zoo)
// and, one per backend name in a CacheSet, the batch and facade cache.
// Safe for concurrent use.
type Engine struct {
	backends []Scheduler
	opts     PortfolioOptions
	lru      *lru

	ins  *Instruments
	name string
}

// NewEngine builds a memoized race over backends with at most capacity
// stored results (capacity < 1 defaults to 256).
func NewEngine(backends []Scheduler, capacity int, opts PortfolioOptions) *Engine {
	return &Engine{backends: backends, lru: newLRU(capacity), opts: opts}
}

// Instrument attaches the memo's hit/miss/eviction counters and
// per-backend race telemetry (latency, win/loss/truncation) to ins under
// the given engine name — the serving layer passes the request class.
// Call once, before the engine serves traffic.
func (e *Engine) Instrument(ins *Instruments, name string) {
	ins.instrumentLRU(name, e.lru)
	e.ins, e.name = ins, name
}

// Backends returns the raced backend names, in race order.
func (e *Engine) Backends() []string {
	names := make([]string, len(e.backends))
	for i, b := range e.backends {
		names[i] = b.Name()
	}
	return names
}

// Instance is what Run needs of a graph: the fingerprint it looks the
// memo up by, and the graph itself, which it asks for only on a miss. A
// built *graph.Graph is one; so is a *graph.Document, which a request
// decoded and checked but builds only when Graph is called.
type Instance interface {
	Fingerprint() uint64
	Graph() *graph.Graph
}

// Run races the backends on (in, numStages), serving memoized results
// when available. It does one memo lookup by (fingerprint, stages), and
// calls in.Graph only when that misses. hit reports a cache hit; on a hit
// the Outcomes telemetry (elapsed times, per-backend costs) is that of
// the original race and the result is shared — callers must treat
// Outcomes as read-only.
func (e *Engine) Run(ctx context.Context, in Instance, numStages int) (res PortfolioResult, hit bool, err error) {
	key := cacheKey{fp: in.Fingerprint(), numStages: numStages}
	if res, hit = e.lru.get(key); hit {
		res.Schedule = res.Schedule.Clone()
		return res, true, nil
	}
	// Solve outside the lock: a slow backend must not serialize unrelated
	// cache traffic. Concurrent misses on one key may race the solve; the
	// last finisher's (equivalent) result wins.
	res, err = PortfolioOpt(ctx, e.backends, in.Graph(), numStages, e.opts)
	e.ins.ObserveOutcomes(e.name, res.Outcomes)
	if err != nil || res.Truncated {
		// A budget-cut incumbent must not shadow a later full-effort race.
		// A full-effort winner IS stored even when slower members were cut:
		// the memoized result means "best found within one race budget".
		return res, false, err
	}
	stored := res
	stored.Schedule = res.Schedule.Clone()
	// Drop every per-outcome schedule: telemetry (cost, elapsed, error)
	// stays, the winner's assignment lives in stored.Schedule, and nothing
	// in the cache aliases a schedule the miss caller may mutate.
	stored.Outcomes = append([]Outcome(nil), res.Outcomes...)
	for i := range stored.Outcomes {
		stored.Outcomes[i].Schedule = sched.Schedule{}
	}
	e.lru.put(key, stored)
	return res, false, nil
}

// Contains reports whether a full-effort race for (g, numStages) is
// memoized, without counting toward hit/miss statistics.
func (e *Engine) Contains(g *graph.Graph, numStages int) bool {
	return e.lru.contains(cacheKey{fp: g.Fingerprint(), numStages: numStages})
}

// Warm races every graph through Batch on GOMAXPROCS workers and returns
// how many distinct instances are memoized afterwards — duplicate graphs
// in the warm set and evictions by later warms must not inflate the count.
// Warming is best-effort: truncated races are skipped rather than stored,
// failures don't stop the remaining warms, and the first error (in input
// order) is returned at the end.
func (e *Engine) Warm(ctx context.Context, graphs []*graph.Graph, numStages int) (stored int, err error) {
	// Batch's own error is ctx's, which every instance it cut short already
	// carries.
	results, _ := Batch(ctx, e, graphs, numStages, runtime.GOMAXPROCS(0))
	seen := make(map[uint64]bool, len(graphs))
	for i, g := range graphs {
		if err == nil {
			err = results[i].Err
		}
		if fp := g.Fingerprint(); !seen[fp] {
			seen[fp] = true
			if e.Contains(g, numStages) {
				stored++
			}
		}
	}
	return stored, err
}

// OnEvict registers fn to be called with the evicted instance's graph
// fingerprint and stage count on every memo eviction. The hook runs under
// the cache lock: keep it cheap and never call back into this engine from
// it. Multiple hooks run in registration order; this is the signal source
// for speculative re-admission of evicted hot entries.
func (e *Engine) OnEvict(fn func(fp uint64, numStages int)) {
	e.lru.addEvictHook(func(k cacheKey) { fn(k.fp, k.numStages) })
}

// SetEvictionScorer makes eviction popularity-aware: when over capacity
// the memo evicts the lowest-scoring of its least recently used entries
// instead of strictly the oldest, so hot-but-aged results survive cold
// churn. score runs under the cache lock — it must be cheap and must not
// call back into this engine. A nil score restores plain LRU order.
func (e *Engine) SetEvictionScorer(score func(fp uint64, numStages int) float64) {
	if score == nil {
		e.lru.setVictimScorer(nil)
		return
	}
	e.lru.setVictimScorer(func(k cacheKey) float64 { return score(k.fp, k.numStages) })
}

// Stats returns cumulative cache hits and misses.
func (e *Engine) Stats() (hits, misses uint64) { return e.lru.stats() }

// Evictions returns the cumulative number of LRU evictions.
func (e *Engine) Evictions() uint64 { return e.lru.evicted() }

// Len returns the number of memoized races.
func (e *Engine) Len() int { return e.lru.len() }
