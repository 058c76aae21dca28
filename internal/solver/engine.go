package solver

import (
	"container/list"
	"context"
	"runtime"
	"sync"

	"respect/internal/graph"
	"respect/internal/sched"
)

// Engine memoizes portfolio races by graph fingerprint and stage count,
// preserving per-backend telemetry; a single backend is an engine of one.
// A hit returns the stored race result in O(1) (with a defensively copied
// schedule); a miss races the backends and stores the result unless it
// was budget-truncated — a cut incumbent is only as good as the call's
// deadline and must not shadow a later full-effort race. Only validated
// schedules are ever stored: the race excludes invalid ones. The memo is
// a fixed-capacity LRU table; the Engine is that table. This is the
// serving layer's per-request-class engine (warmed from the model zoo)
// and, one per backend name in a CacheSet, the batch and facade cache.
// Safe for concurrent use.
type Engine struct {
	backends []Scheduler
	opts     PortfolioOptions
	cap      int

	ins  *Instruments
	name string

	// mu guards the memo: its table, recency order, counters, eviction
	// hooks and victim scorer.
	mu        sync.Mutex
	entries   map[cacheKey]*list.Element
	order     *list.List // front = most recently used
	hits      uint64
	misses    uint64
	evictions uint64
	onEvict   []func(fp uint64, numStages int)
	// victimScore, when set, makes eviction popularity-aware: instead of
	// always evicting the LRU tail, store scans the victimScanDepth least
	// recently used entries and evicts the lowest-scoring one, so a hot
	// entry that merely aged survives cold churn.
	victimScore func(fp uint64, numStages int) float64
}

// cacheKey identifies one scheduling instance: the graph's structural
// fingerprint plus the pipeline length.
type cacheKey struct {
	fp        uint64
	numStages int
}

type memoEntry struct {
	key cacheKey
	val PortfolioResult
}

// defaultCacheCap replaces non-positive capacities, so a zero or negative
// configured size can never build a pathological always-evicting memo.
const defaultCacheCap = 256

// victimScanDepth bounds how many tail entries a popularity-aware
// eviction examines; beyond a handful the scan buys nothing — anything
// deeper in the recency order is recent enough to keep regardless.
const victimScanDepth = 8

// NewEngine builds a memoized race over backends with at most capacity
// stored results (capacity < 1 defaults to 256).
func NewEngine(backends []Scheduler, capacity int, opts PortfolioOptions) *Engine {
	if capacity < 1 {
		capacity = defaultCacheCap
	}
	return &Engine{backends: backends, opts: opts, cap: capacity,
		entries: make(map[cacheKey]*list.Element), order: list.New()}
}

// Instrument attaches the memo's hit/miss/eviction counters and
// per-backend race telemetry (latency, win/loss/truncation) to ins under
// the given engine name — the serving layer passes the request class.
// The counters are read from the engine at scrape time, so the exposition
// page can never disagree with Stats and Evictions. Call once, before the
// engine serves traffic.
func (e *Engine) Instrument(ins *Instruments, name string) {
	e.ins, e.name = ins, name
	if ins == nil {
		return
	}
	ins.cacheOps.Func(func() float64 { h, _ := e.Stats(); return float64(h) }, name, "hit")
	ins.cacheOps.Func(func() float64 { _, m := e.Stats(); return float64(m) }, name, "miss")
	ins.cacheOps.Func(func() float64 { return float64(e.Evictions()) }, name, "evict")
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
// Outcomes as read-only. A stage count below 1 is refused before the
// lookup, so a refused call counts neither a hit nor a miss.
func (e *Engine) Run(ctx context.Context, in Instance, numStages int) (res PortfolioResult, hit bool, err error) {
	if err := checkStages(numStages); err != nil {
		return PortfolioResult{}, false, err
	}
	key := cacheKey{fp: in.Fingerprint(), numStages: numStages}
	if res, hit = e.lookup(key); hit {
		res.Schedule = res.Schedule.Clone()
		return res, true, nil
	}
	// Solve outside the lock: a slow backend must not serialize unrelated
	// cache traffic. Concurrent misses on one key may race the solve; the
	// last finisher's (equivalent) result wins.
	res, err = e.Race(ctx, e.backends, in.Graph(), numStages)
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
	e.store(key, stored)
	return res, false, nil
}

// Race races backends — the engine's own or an ad-hoc portfolio a request
// pinned — on (g, numStages) under the engine's patience, and records the
// per-backend telemetry under the engine's name. It never touches the
// memo.
func (e *Engine) Race(ctx context.Context, backends []Scheduler, g *graph.Graph, numStages int) (PortfolioResult, error) {
	res, err := PortfolioOpt(ctx, backends, g, numStages, e.opts)
	e.ins.observeOutcomes(e.name, res.Outcomes)
	return res, err
}

// lookup returns the memoized result for key, counting a hit or a miss.
func (e *Engine) lookup(key cacheKey) (PortfolioResult, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if el, ok := e.entries[key]; ok {
		e.order.MoveToFront(el)
		e.hits++
		return el.Value.(*memoEntry).val, true
	}
	e.misses++
	return PortfolioResult{}, false
}

// store inserts or refreshes key, evicting beyond capacity.
func (e *Engine) store(key cacheKey, val PortfolioResult) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if el, ok := e.entries[key]; ok {
		e.order.MoveToFront(el)
		el.Value.(*memoEntry).val = val
		return
	}
	e.entries[key] = e.order.PushFront(&memoEntry{key: key, val: val})
	for e.order.Len() > e.cap {
		victim := e.victim()
		k := victim.Value.(*memoEntry).key
		e.order.Remove(victim)
		delete(e.entries, k)
		e.evictions++
		for _, fn := range e.onEvict {
			fn(k.fp, k.numStages)
		}
	}
}

// victim picks the entry to evict: the back of the recency order, or,
// with a scorer installed, the lowest-scoring of the last victimScanDepth
// entries (ties keep the least recently used). The just-inserted front
// entry is never a candidate — evicting it would turn store into a silent
// no-op, and a hot key that can never land in the memo re-solves on every
// request. Called with e.mu held.
func (e *Engine) victim() *list.Element {
	victim := e.order.Back()
	if e.victimScore == nil || victim == nil {
		return victim
	}
	scan := min(victimScanDepth, e.order.Len()-1)
	score := func(el *list.Element) float64 {
		k := el.Value.(*memoEntry).key
		return e.victimScore(k.fp, k.numStages)
	}
	best, bestScore := victim, score(victim)
	el := victim
	for i := 1; i < scan; i++ {
		if el = el.Prev(); el == nil {
			break
		}
		if sc := score(el); sc < bestScore {
			best, bestScore = el, sc
		}
	}
	return best
}

// Contains reports whether a full-effort race for (g, numStages) is
// memoized, without counting toward hit/miss statistics.
func (e *Engine) Contains(g *graph.Graph, numStages int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.entries[cacheKey{fp: g.Fingerprint(), numStages: numStages}]
	return ok
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
// the memo lock: keep it cheap and never call back into this engine from
// it. Multiple hooks run in registration order; this is the signal source
// for speculative re-admission of evicted hot entries.
func (e *Engine) OnEvict(fn func(fp uint64, numStages int)) {
	e.mu.Lock()
	e.onEvict = append(e.onEvict, fn)
	e.mu.Unlock()
}

// SetEvictionScorer makes eviction popularity-aware: when over capacity
// the memo evicts the lowest-scoring of its least recently used entries
// instead of strictly the oldest, so hot-but-aged results survive cold
// churn. score runs under the memo lock — it must be cheap and must not
// call back into this engine. A nil score restores plain LRU order.
func (e *Engine) SetEvictionScorer(score func(fp uint64, numStages int) float64) {
	e.mu.Lock()
	e.victimScore = score
	e.mu.Unlock()
}

// Stats returns cumulative cache hits and misses.
func (e *Engine) Stats() (hits, misses uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hits, e.misses
}

// Evictions returns the cumulative number of memo evictions.
func (e *Engine) Evictions() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.evictions
}

// Len returns the number of memoized races.
func (e *Engine) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.order.Len()
}
