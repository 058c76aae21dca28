// Package speculate closes the loop from serving observability back into
// scheduling decisions: it watches serving traffic, tracks per-instance
// popularity with decayed counters, listens to schedule-cache eviction
// signals, and keeps the warm caches hot ahead of demand.
//
// Edge inference traffic is heavily skewed toward a small set of popular
// models (Castellano et al. 2023), which is exactly the regime where
// predictive warming converts tail-latency cache misses into hits. The
// speculator exploits three signals:
//
//   - eviction: a hot key pushed out of the LRU by cold churn is
//     re-admitted before the next request pays a full solver race;
//   - popularity: hot keys missing from the cache (cold start, earlier
//     truncated solves) are warmed;
//   - mutation: likely variants of popular graphs — stage-count
//     neighbors, zoo family members, structurally pruned graphs — are
//     scheduled before any client asks.
//
// Speculative work never competes with admitted requests: a budgeted pass
// warms its candidates one at a time only while admission occupancy stays
// below a configurable watermark, and yields entirely the moment it rises.
package speculate

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"respect/internal/graph"
	"respect/internal/sched"
)

// Target is the cache a Speculator keeps warm. The serving layer adapts
// its per-class memoized portfolio engines to this interface.
type Target interface {
	// Contains reports whether a full-effort result for (g, numStages) is
	// already cached.
	Contains(g *graph.Graph, numStages int) bool
	// Warm solves (g, numStages) and reports whether a full-effort result
	// was stored. Budget-truncated solves must not be stored — stored is
	// false for them — matching the honesty contract of the solver caches.
	Warm(ctx context.Context, g *graph.Graph, numStages int) (stored bool, err error)
}

// Reason labels what triggered one speculative warm; these are the values
// of the reason label on respect_speculative_warms_total.
const (
	// ReasonEvicted marks re-admission of a hot key the LRU pushed out.
	ReasonEvicted = "evicted"
	// ReasonPopular marks warming of a hot key that was not cached.
	ReasonPopular = "popular"
	// ReasonMutation marks warming of a generated variant of a hot key.
	ReasonMutation = "mutation"
)

// Config tunes a Speculator. Zero values select the documented defaults.
type Config struct {
	// Target is the cache to keep warm. Required.
	Target Target
	// Occupancy reports current admission occupancy in [0, ∞): admitted
	// plus queued work over the concurrency limit. nil means always idle.
	Occupancy func() float64
	// Watermark is the occupancy at or above which speculation yields.
	// Zero means unset and selects the 0.5 default; legal explicit values
	// are (0, 1].
	Watermark float64
	// Budget bounds speculative solves per pass (default 4).
	Budget int
	// Interval is the period of the background Run loop (default 500ms).
	Interval time.Duration
	// TopK bounds how many hot keys each pass considers for popularity
	// and mutation warming (default 8).
	TopK int
	// SolveBudget bounds one speculative solve (default 1s). Truncated
	// solves are not stored, so this also bounds wasted work.
	SolveBudget time.Duration
	// Logf, when set, receives speculation log lines.
	Logf func(format string, args ...any)
}

// Config defaults, applied by New for unset fields.
const (
	defaultWatermark   = 0.5
	defaultBudget      = 4
	defaultInterval    = 500 * time.Millisecond
	defaultTopK        = 8
	defaultSolveBudget = time.Second
)

// minScore is the decayed score a key needs before the speculator acts
// on it: more than one recent request, since a single request is not
// popularity.
const minScore = 1.5

// Speculator drives speculative warming for one Target. Create with New,
// feed it demand (ObserveRequest) and eviction signals (ObserveEviction),
// and either call Run for the background loop or RunOnce per pass.
type Speculator struct {
	cfg     Config
	tracker *Tracker

	mu             sync.Mutex
	pendingEvicted map[Key]bool // hot keys evicted since the last pass
	speculative    map[Key]bool // keys currently cached because of us

	mutMu    sync.Mutex
	mutCache map[Key][]Candidate // memoized Mutations per source key

	passes           atomic.Uint64
	attempts         atomic.Uint64
	skippedWatermark atomic.Uint64
	warmsEvicted     atomic.Uint64
	warmsPopular     atomic.Uint64
	warmsMutation    atomic.Uint64
	hits             atomic.Uint64
}

// New validates cfg, applies defaults and returns a ready Speculator.
func New(cfg Config) (*Speculator, error) {
	if cfg.Target == nil {
		return nil, errors.New("speculate: Config.Target is required")
	}
	switch {
	case cfg.Watermark == 0:
		cfg.Watermark = defaultWatermark
	case cfg.Watermark < 0 || cfg.Watermark > 1:
		return nil, fmt.Errorf("speculate: watermark %v invalid: want (0,1], or 0 for the %v default",
			cfg.Watermark, defaultWatermark)
	}
	if cfg.Budget == 0 {
		cfg.Budget = defaultBudget
	}
	if cfg.Budget < 0 {
		return nil, fmt.Errorf("speculate: budget %d must not be negative", cfg.Budget)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = defaultInterval
	}
	if cfg.TopK < 1 {
		cfg.TopK = defaultTopK
	}
	if cfg.SolveBudget <= 0 {
		cfg.SolveBudget = defaultSolveBudget
	}
	tracker := NewTracker(defaultHalfLife, defaultTrackerCap)
	// Cold keys need only their score; the graph payload (client-sized,
	// so client-controlled memory) is retained only once a key is hot
	// enough to act on.
	tracker.retainScore = minScore
	return &Speculator{
		cfg:            cfg,
		tracker:        tracker,
		pendingEvicted: make(map[Key]bool),
		speculative:    make(map[Key]bool),
		mutCache:       make(map[Key][]Candidate),
	}, nil
}

// ObserveRequest is the per-request popularity tap: the serving layer
// calls it for every class-resolved request.
func (s *Speculator) ObserveRequest(g *graph.Graph, numStages int) {
	s.tracker.Observe(g, numStages)
}

// ObserveEviction is the cache eviction tap, wired to the solver engine's
// eviction hook (Engine.OnEvict). A hot key (decayed score at or above
// minScore) becomes a re-admission candidate for the next pass; any key
// loses its speculatively-warmed mark, since the entry it marked is gone.
// The hook may run under the engine's memo lock, so this only touches
// speculator state.
func (s *Speculator) ObserveEviction(fp uint64, numStages int) {
	key := Key{FP: fp, Stages: numStages}
	hot := s.tracker.Score(key) >= minScore
	s.mu.Lock()
	delete(s.speculative, key)
	if hot {
		s.pendingEvicted[key] = true
	}
	s.mu.Unlock()
}

// AttributeHit reports whether a cache hit on (fp, numStages) was served
// by a speculatively-warmed entry, counting it when so. The serving layer
// calls it once per cache hit to drive the hit-attribution counter.
func (s *Speculator) AttributeHit(fp uint64, numStages int) bool {
	s.mu.Lock()
	spec := s.speculative[Key{FP: fp, Stages: numStages}]
	s.mu.Unlock()
	if spec {
		s.hits.Add(1)
	}
	return spec
}

// WasSpeculative reports whether (fp, numStages) is currently cached
// because of speculative warming, without counting an attribution.
func (s *Speculator) WasSpeculative(fp uint64, numStages int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.speculative[Key{FP: fp, Stages: numStages}]
}

// PopularityScore returns the key's decayed popularity score. It backs
// the solver cache's popularity-aware eviction ordering and is safe to
// call from the engine's locked victim-selection path (the tracker lock is a
// leaf).
func (s *Speculator) PopularityScore(fp uint64, numStages int) float64 {
	return s.tracker.Score(Key{FP: fp, Stages: numStages})
}

// candidate is one unit of speculative work within a pass.
type candidate struct {
	key    Key
	g      *graph.Graph
	stages int
	reason string
}

// gather assembles one pass's deduplicated candidate list in priority
// order (evicted, popular, mutation), bounded by Budget. It drains the
// pending-eviction set; keys it cannot act on (tracker no longer holds
// the graph) are dropped rather than retried forever.
func (s *Speculator) gather() []candidate {
	s.mu.Lock()
	evicted := s.pendingEvicted
	s.pendingEvicted = make(map[Key]bool)
	s.mu.Unlock()

	budget := s.cfg.Budget
	seen := make(map[Key]bool)
	var out []candidate
	add := func(c candidate) bool {
		if len(out) >= budget || seen[c.key] || s.cfg.Target.Contains(c.g, c.stages) {
			seen[c.key] = true
			return len(out) < budget
		}
		seen[c.key] = true
		out = append(out, c)
		return true
	}

	// Evicted hot keys first: these were serving hits until cold churn
	// pushed them out. Iterate hottest-first for determinism.
	for _, e := range s.tracker.Hot(s.tracker.Len()) {
		if !evicted[e.Key] || e.Graph == nil {
			continue
		}
		if !add(candidate{key: e.Key, g: e.Graph, stages: e.Key.Stages, reason: ReasonEvicted}) {
			return out
		}
	}

	hot := s.tracker.Hot(s.cfg.TopK)
	for _, e := range hot {
		if e.Score < minScore || e.Graph == nil {
			continue
		}
		if !add(candidate{key: e.Key, g: e.Graph, stages: e.Key.Stages, reason: ReasonPopular}) {
			return out
		}
	}
	for _, e := range hot {
		if e.Score < minScore || e.Graph == nil {
			continue
		}
		for _, m := range s.mutationsFor(e) {
			key := Key{FP: m.Graph.Fingerprint(), Stages: m.Stages}
			if !add(candidate{key: key, g: m.Graph, stages: m.Stages, reason: ReasonMutation}) {
				return out
			}
		}
	}
	return out
}

// mutCacheCap bounds the mutation memo; the hot set it serves is TopK
// keys, so overflow means churn and a wholesale reset is fine.
const mutCacheCap = 64

// mutationsFor memoizes Mutations per source key. Candidates are a pure
// function of the source graph (fingerprints are structural), and
// regenerating them every pass — including constructing zoo model graphs
// for family members — would be steady throwaway work on an idle server.
func (s *Speculator) mutationsFor(e Entry) []Candidate {
	s.mutMu.Lock()
	muts, ok := s.mutCache[e.Key]
	s.mutMu.Unlock()
	if ok {
		return muts
	}
	muts = Mutations(e.Graph, e.Key.Stages, sched.MaxStages)
	s.mutMu.Lock()
	if len(s.mutCache) >= mutCacheCap {
		s.mutCache = make(map[Key][]Candidate)
	}
	s.mutCache[e.Key] = muts
	s.mutMu.Unlock()
	return muts
}

// RunOnce executes one speculation pass synchronously: gather candidates,
// then warm them one at a time while occupancy stays below the watermark.
// It returns the number of cache entries stored. The moment occupancy
// reaches the watermark the pass yields: the remaining candidates are
// dropped (and counted as skipped), not queued — the next pass re-derives
// demand from fresher signals. A shutdown drops them without counting.
func (s *Speculator) RunOnce(ctx context.Context) int {
	s.passes.Add(1)
	cands := s.gather()
	stored := 0
	for i, c := range cands {
		if ctx.Err() != nil {
			break
		}
		if s.occupancy() >= s.cfg.Watermark {
			s.skippedWatermark.Add(uint64(len(cands) - i))
			break
		}
		if s.warmOne(ctx, c) {
			stored++
		}
	}
	if stored > 0 {
		s.logf("speculate: pass warmed %d/%d candidates", stored, len(cands))
	}
	return stored
}

// warmOne runs one speculative solve under the per-solve budget and does
// the bookkeeping: a stored full-effort result marks the key speculative
// and counts under its trigger reason; truncated or failed solves store
// nothing and count nothing.
func (s *Speculator) warmOne(ctx context.Context, c candidate) bool {
	s.attempts.Add(1)
	sctx, cancel := context.WithTimeout(ctx, s.cfg.SolveBudget)
	defer cancel()
	stored, err := s.cfg.Target.Warm(sctx, c.g, c.stages)
	if err != nil {
		s.logf("speculate: warm %s (%s, %d stages): %v", c.reason, c.g.Name, c.stages, err)
		return false
	}
	if !stored {
		return false
	}
	// Mark first, then re-check membership: an eviction racing this mark
	// either lands after it (ObserveEviction clears the mark) or landed
	// before it (the re-check sees the entry gone and we clear it
	// ourselves). Marking after the check would leave a stale mark that
	// misattributes every later organic hit on this key to speculation.
	s.mu.Lock()
	s.speculative[c.key] = true
	s.mu.Unlock()
	if !s.cfg.Target.Contains(c.g, c.stages) {
		s.mu.Lock()
		delete(s.speculative, c.key)
		s.mu.Unlock()
		return false
	}
	switch c.reason {
	case ReasonEvicted:
		s.warmsEvicted.Add(1)
	case ReasonPopular:
		s.warmsPopular.Add(1)
	default:
		s.warmsMutation.Add(1)
	}
	return true
}

// occupancy reads the configured occupancy probe (0 when unset).
func (s *Speculator) occupancy() float64 {
	if s.cfg.Occupancy == nil {
		return 0
	}
	return s.cfg.Occupancy()
}

// Run executes passes every Interval until ctx is cancelled. It is the
// background loop the serving layer starts alongside zoo warm-up.
func (s *Speculator) Run(ctx context.Context) {
	ticker := time.NewTicker(s.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			s.RunOnce(ctx)
		}
	}
}

// logf forwards to the configured logger, if any.
func (s *Speculator) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Stats is a point-in-time snapshot of one Speculator's counters.
type Stats struct {
	// TrackedKeys is the number of instances with live popularity state.
	TrackedKeys int `json:"tracked_keys"`
	// Passes counts RunOnce invocations.
	Passes uint64 `json:"passes"`
	// Attempts counts speculative solves started.
	Attempts uint64 `json:"attempts"`
	// WarmsEvicted / WarmsPopular / WarmsMutation count stored warms by
	// trigger reason.
	WarmsEvicted  uint64 `json:"warms_evicted"`
	WarmsPopular  uint64 `json:"warms_popular"`
	WarmsMutation uint64 `json:"warms_mutation"`
	// SkippedWatermark counts candidates dropped because admission
	// occupancy was at or above the watermark.
	SkippedWatermark uint64 `json:"skipped_watermark"`
	// SpeculativeEntries is the number of currently cached entries that
	// were stored by speculation.
	SpeculativeEntries int `json:"speculative_entries"`
	// Hits counts requests served by a speculatively-warmed entry.
	Hits uint64 `json:"hits"`
}

// WarmCount returns the stored-warm counter for one Reason with a single
// atomic read — the metrics exposition reads these at scrape time without
// taking any speculator lock.
func (s *Speculator) WarmCount(reason string) uint64 {
	switch reason {
	case ReasonEvicted:
		return s.warmsEvicted.Load()
	case ReasonPopular:
		return s.warmsPopular.Load()
	default:
		return s.warmsMutation.Load()
	}
}

// HitCount returns the attributed-hit counter (lock-free).
func (s *Speculator) HitCount() uint64 { return s.hits.Load() }

// SkippedCount returns the watermark-skip counter (lock-free).
func (s *Speculator) SkippedCount() uint64 { return s.skippedWatermark.Load() }

// Stats snapshots the speculator's counters.
func (s *Speculator) Stats() Stats {
	s.mu.Lock()
	entries := len(s.speculative)
	s.mu.Unlock()
	return Stats{
		TrackedKeys:        s.tracker.Len(),
		Passes:             s.passes.Load(),
		Attempts:           s.attempts.Load(),
		WarmsEvicted:       s.warmsEvicted.Load(),
		WarmsPopular:       s.warmsPopular.Load(),
		WarmsMutation:      s.warmsMutation.Load(),
		SkippedWatermark:   s.skippedWatermark.Load(),
		SpeculativeEntries: entries,
		Hits:               s.hits.Load(),
	}
}
