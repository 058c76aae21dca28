package speculate

import (
	"math"
	"sort"
	"sync"
	"time"

	"respect/internal/graph"
)

// Key identifies one scheduling instance the way the solver caches do: the
// graph's structural fingerprint plus the pipeline length.
type Key struct {
	// FP is graph.Fingerprint() of the requested graph.
	FP uint64
	// Stages is the requested pipeline length.
	Stages int
}

// Entry is one tracked instance together with its current (decayed)
// popularity score and the most recently observed graph for the key.
type Entry struct {
	Key   Key
	Graph *graph.Graph
	Score float64
}

// trackerEntry is the mutable per-key state: the last observed graph (kept
// so eviction victims can be re-solved without a client round trip), the
// decayed request count and its last-decay timestamp.
type trackerEntry struct {
	g     *graph.Graph
	score float64
	last  time.Time
}

// Tracker maintains exponentially decayed per-instance request counters:
// each observation adds 1 to the key's score, and scores halve every
// half-life of silence. It is the demand signal behind speculative
// warming — hot keys are worth re-admitting after eviction and worth
// mutating ahead of demand, cold keys are not. Safe for concurrent use.
type Tracker struct {
	halfLife time.Duration
	cap      int
	now      func() time.Time // injectable clock for deterministic tests

	// retainScore gates graph retention: a key's graph — client-sized
	// memory, unlike the fixed-size score — is kept only once its score
	// reaches retainScore. Zero retains every observed graph.
	retainScore float64
	// maxNodes budgets the total node count of retained graphs; beyond
	// it the coldest keys' graphs are shed (scores are kept).
	maxNodes int

	mu       sync.Mutex
	m        map[Key]*trackerEntry
	curNodes int // total nodes across retained graphs
}

// defaults for Tracker construction; NewTracker normalizes non-positive
// arguments to these.
const (
	defaultHalfLife   = time.Minute
	defaultTrackerCap = 1024
	// defaultMaxRetainedNodes bounds retained-graph memory: ~256k nodes
	// covers hundreds of zoo-sized hot graphs while keeping the worst
	// case of adversarially large inline graphs to tens of megabytes.
	defaultMaxRetainedNodes = 1 << 18
)

// NewTracker builds a tracker whose scores halve every halfLife
// (non-positive defaults to one minute) and which retains at most capacity
// keys (non-positive defaults to 1024), dropping the coldest key when full.
func NewTracker(halfLife time.Duration, capacity int) *Tracker {
	if halfLife <= 0 {
		halfLife = defaultHalfLife
	}
	if capacity < 1 {
		capacity = defaultTrackerCap
	}
	return &Tracker{
		halfLife: halfLife,
		cap:      capacity,
		now:      time.Now,
		maxNodes: defaultMaxRetainedNodes,
		m:        make(map[Key]*trackerEntry),
	}
}

// decayTo folds the elapsed time since e.last into e.score. Called with
// t.mu held.
func (t *Tracker) decayTo(e *trackerEntry, now time.Time) {
	if dt := now.Sub(e.last); dt > 0 {
		e.score *= math.Exp2(-float64(dt) / float64(t.halfLife))
		e.last = now
	}
}

// Observe records one request for (g, numStages), bumping the key's
// decayed score by 1 and retaining g as the key's representative graph.
func (t *Tracker) Observe(g *graph.Graph, numStages int) {
	key := Key{FP: g.Fingerprint(), Stages: numStages}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.m[key]
	if !ok {
		if len(t.m) >= t.cap {
			t.dropColdest(now)
		}
		e = &trackerEntry{last: now}
		t.m[key] = e
	}
	t.decayTo(e, now)
	e.score++
	if e.score >= t.retainScore {
		if e.g == nil {
			t.curNodes += g.NumNodes()
		}
		e.g = g // same key ⇒ same structure, so the node count is stable
		t.enforceNodeBudget(now)
	}
}

// dropColdest removes the coldest eighth of the keys (at least one) to
// make room. Called with t.mu held. Evicting a batch per scan amortizes
// the O(n) decayed sweep: under sustained novel traffic — every request
// a fresh key — a full tracker pays one sweep per cap/8 inserts instead
// of one per insert, which matters because Observe sits on the
// synchronous request path.
func (t *Tracker) dropColdest(now time.Time) {
	drop := t.cap / 8
	if drop < 1 {
		drop = 1
	}
	type keyScore struct {
		k Key
		s float64
	}
	all := make([]keyScore, 0, len(t.m))
	for k, e := range t.m {
		t.decayTo(e, now)
		all = append(all, keyScore{k, e.score})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].s < all[j].s })
	if drop > len(all) {
		drop = len(all)
	}
	for _, v := range all[:drop] {
		if e := t.m[v.k]; e.g != nil {
			t.curNodes -= e.g.NumNodes()
		}
		delete(t.m, v.k)
	}
}

// enforceNodeBudget sheds the coldest retained graphs (keeping their
// scores) until total retained nodes fit the budget. Called with t.mu
// held; the O(n) scan runs only when the budget is exceeded.
func (t *Tracker) enforceNodeBudget(now time.Time) {
	for t.curNodes > t.maxNodes {
		var coldest *trackerEntry
		coldestScore := math.Inf(1)
		for _, e := range t.m {
			if e.g == nil {
				continue
			}
			t.decayTo(e, now)
			if e.score < coldestScore {
				coldest, coldestScore = e, e.score
			}
		}
		if coldest == nil {
			return
		}
		t.curNodes -= coldest.g.NumNodes()
		coldest.g = nil
	}
}

// Score returns the key's current decayed score (zero for untracked keys).
func (t *Tracker) Score(key Key) float64 {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.m[key]
	if !ok {
		return 0
	}
	t.decayTo(e, now)
	return e.score
}

// Graph returns the most recently retained graph for key, or nil when
// the key is untracked, not yet hot enough for graph retention
// (retainScore), or had its graph shed by the node budget.
func (t *Tracker) Graph(key Key) *graph.Graph {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.m[key]; ok {
		return e.g
	}
	return nil
}

// Hot returns up to n tracked instances ordered by descending decayed
// score (ties broken by fingerprint for determinism).
func (t *Tracker) Hot(n int) []Entry {
	now := t.now()
	t.mu.Lock()
	out := make([]Entry, 0, len(t.m))
	for k, e := range t.m {
		t.decayTo(e, now)
		out = append(out, Entry{Key: k, Graph: e.g, Score: e.score})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].Key.FP != out[j].Key.FP {
			return out[i].Key.FP < out[j].Key.FP
		}
		return out[i].Key.Stages < out[j].Key.Stages
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Len returns the number of tracked keys.
func (t *Tracker) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}
