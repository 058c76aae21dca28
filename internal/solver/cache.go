package solver

import (
	"container/list"
	"sync"
)

// cacheKey identifies one scheduling instance: the graph's structural
// fingerprint plus the pipeline length.
type cacheKey struct {
	fp        uint64
	numStages int
}

// lru is a concurrency-safe fixed-capacity LRU table of race results keyed
// by cacheKey: the memo behind every Engine. It hands out what it was
// given; the Engine owns copy semantics.
type lru struct {
	cap int

	mu        sync.Mutex
	entries   map[cacheKey]*list.Element
	order     *list.List // front = most recently used
	hits      uint64
	misses    uint64
	evictions uint64
	onEvict   []func(cacheKey) // eviction hooks, called (under mu) per eviction
	// victimScore, when set, makes eviction popularity-aware: instead of
	// always evicting the LRU tail, put scans the victimScanDepth least
	// recently used entries and evicts the lowest-scoring one, so a hot
	// entry that merely aged survives cold churn.
	victimScore func(cacheKey) float64
}

type lruEntry struct {
	key cacheKey
	val PortfolioResult
}

// defaultCacheCap replaces non-positive cache capacities. Every LRU
// construction path (NewEngine, NewCacheSet) funnels through this guard,
// so a zero or negative configured size can never build a pathological
// always-evicting cache.
const defaultCacheCap = 256

// normCacheCap normalizes a configured cache capacity.
func normCacheCap(capacity int) int {
	if capacity < 1 {
		return defaultCacheCap
	}
	return capacity
}

func newLRU(capacity int) *lru {
	return &lru{
		cap:     normCacheCap(capacity),
		entries: make(map[cacheKey]*list.Element),
		order:   list.New(),
	}
}

// addEvictHook registers fn, called once per evicted entry with the
// evicted key while the LRU lock is held — keep it cheap (a counter
// increment, a set insertion) and never re-enter the LRU from it.
func (l *lru) addEvictHook(fn func(cacheKey)) {
	l.mu.Lock()
	l.onEvict = append(l.onEvict, fn)
	l.mu.Unlock()
}

// setVictimScorer installs score as the eviction-ordering signal (nil
// restores plain LRU order). Called under the LRU lock at eviction time,
// so it must be cheap and must not touch the LRU itself.
func (l *lru) setVictimScorer(score func(cacheKey) float64) {
	l.mu.Lock()
	l.victimScore = score
	l.mu.Unlock()
}

// victimScanDepth bounds how many tail entries a popularity-aware
// eviction examines; beyond a handful the scan buys nothing — anything
// deeper in the recency order is recent enough to keep regardless.
const victimScanDepth = 8

// victim picks the entry to evict: the back of the recency order, or,
// with a scorer installed, the lowest-scoring of the last victimScanDepth
// entries (ties keep the least recently used). The just-inserted front
// entry is never a candidate — evicting it would turn put into a silent
// no-op, and a hot key that can never land in the cache re-solves on
// every request. Called with l.mu held.
func (l *lru) victim() *list.Element {
	victim := l.order.Back()
	if l.victimScore == nil || victim == nil {
		return victim
	}
	scan := victimScanDepth
	if n := l.order.Len() - 1; scan > n {
		scan = n
	}
	best, bestScore := victim, l.victimScore(victim.Value.(*lruEntry).key)
	el := victim
	for i := 1; i < scan; i++ {
		if el = el.Prev(); el == nil {
			break
		}
		if sc := l.victimScore(el.Value.(*lruEntry).key); sc < bestScore {
			best, bestScore = el, sc
		}
	}
	return best
}

// get returns the cached value for key, counting a hit or a miss.
func (l *lru) get(key cacheKey) (PortfolioResult, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.entries[key]; ok {
		l.order.MoveToFront(el)
		l.hits++
		return el.Value.(*lruEntry).val, true
	}
	l.misses++
	return PortfolioResult{}, false
}

// contains reports whether key is cached without touching recency or stats.
func (l *lru) contains(key cacheKey) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.entries[key]
	return ok
}

// put inserts or refreshes key, evicting the least recently used entries
// beyond capacity.
func (l *lru) put(key cacheKey, val PortfolioResult) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.entries[key]; ok {
		l.order.MoveToFront(el)
		el.Value.(*lruEntry).val = val
		return
	}
	l.entries[key] = l.order.PushFront(&lruEntry{key: key, val: val})
	for l.order.Len() > l.cap {
		oldest := l.victim()
		evictedKey := oldest.Value.(*lruEntry).key
		l.order.Remove(oldest)
		delete(l.entries, evictedKey)
		l.evictions++
		for _, fn := range l.onEvict {
			fn(evictedKey)
		}
	}
}

// recordHit counts a hit that was satisfied outside the lru (within-batch
// dedup), without touching entries or recency.
func (l *lru) recordHit() {
	l.mu.Lock()
	l.hits++
	l.mu.Unlock()
}

func (l *lru) stats() (hits, misses uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hits, l.misses
}

func (l *lru) evicted() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evictions
}

func (l *lru) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.order.Len()
}

// CacheSet lazily maintains one Engine of one per backend name, resolved
// dynamically from a registry — the memo behind the public
// ScheduleWith/ScheduleBatch cache and the serving layer's batch
// endpoint. Replacing a backend registration (agent reload) takes effect
// immediately without invalidating unrelated backends' caches.
type CacheSet struct {
	r   *Registry
	cap int

	mu     sync.Mutex
	m      map[string]*Engine
	ins    *Instruments
	prefix string
}

// NewCacheSet builds a cache set over r with the given per-backend
// capacity (capacity < 1 defaults to 256 — normalized here as well as in
// the LRU itself, so the set never records a pathological capacity).
func NewCacheSet(r *Registry, capacity int) *CacheSet {
	return &CacheSet{r: r, cap: normCacheCap(capacity), m: make(map[string]*Engine)}
}

// Instrument wires every engine in the set — current and future — into
// ins; each backend's engine is named prefix+backendName (e.g. "batch/"
// yields "batch/heur"). Call once, before the set serves traffic.
func (cs *CacheSet) Instrument(ins *Instruments, prefix string) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.ins, cs.prefix = ins, prefix
	for name, c := range cs.m {
		c.Instrument(ins, prefix+name)
	}
}

// For returns the engine over the named backend, creating it on first
// use; unknown names error eagerly.
func (cs *CacheSet) For(name string) (*Engine, error) {
	if _, err := cs.r.Lookup(name); err != nil {
		return nil, err
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if c, ok := cs.m[name]; ok {
		return c, nil
	}
	c := NewEngine([]Scheduler{Dynamic(cs.r, name)}, cs.cap, PortfolioOptions{})
	if cs.ins != nil {
		c.Instrument(cs.ins, cs.prefix+name)
	}
	cs.m[name] = c
	return c, nil
}

// Stats reports cumulative hits and misses for one backend name (zeros
// when that backend was never used through the set).
func (cs *CacheSet) Stats(name string) (hits, misses uint64) {
	cs.mu.Lock()
	c, ok := cs.m[name]
	cs.mu.Unlock()
	if !ok {
		return 0, 0
	}
	return c.Stats()
}

// Reset drops every cached schedule for every backend.
func (cs *CacheSet) Reset() {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.m = make(map[string]*Engine)
}
