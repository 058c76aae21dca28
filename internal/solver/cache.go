package solver

import "sync"

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
// capacity (capacity < 1 defaults to 256, as in NewEngine).
func NewCacheSet(r *Registry, capacity int) *CacheSet {
	return &CacheSet{r: r, cap: capacity, m: make(map[string]*Engine)}
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
