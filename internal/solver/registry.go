package solver

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"respect/internal/graph"
	"respect/internal/sched"
)

// Registry is a concurrency-safe name → Scheduler table. The zero value
// is not usable; construct with NewRegistry. A process normally uses the
// package-level default registry (Register/Lookup/Names), which is
// pre-populated with every model-free backend; model-bound backends (the
// RL decoders) are registered by whoever loads or trains the agent.
type Registry struct {
	mu       sync.RWMutex
	backends map[string]Scheduler
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{backends: make(map[string]Scheduler)}
}

// Register adds s under s.Name(). Registering an empty name or a name
// already taken is an error.
func (r *Registry) Register(s Scheduler) error {
	name := s.Name()
	if name == "" {
		return fmt.Errorf("solver: refusing to register a backend with an empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.backends[name]; ok {
		return fmt.Errorf("solver: backend %q already registered", name)
	}
	r.backends[name] = s
	return nil
}

// Replace adds s under s.Name(), overwriting any existing registration —
// the idempotent variant used when re-binding a freshly loaded RL agent.
func (r *Registry) Replace(s Scheduler) error {
	name := s.Name()
	if name == "" {
		return fmt.Errorf("solver: refusing to register a backend with an empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.backends[name] = s
	return nil
}

// Lookup resolves one backend by name.
func (r *Registry) Lookup(name string) (Scheduler, error) {
	r.mu.RLock()
	s, ok := r.backends[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("solver: unknown backend %q (have %v)", name, r.Names())
	}
	return s, nil
}

// Resolve maps a list of names to backends, failing on the first unknown
// name.
func (r *Registry) Resolve(names ...string) ([]Scheduler, error) {
	out := make([]Scheduler, 0, len(names))
	for _, n := range names {
		s, err := r.Lookup(n)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Names lists registered backends, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.backends))
	for n := range r.backends {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Dynamic returns a Scheduler that resolves name from r at every call, so
// replacing the registration (e.g. re-binding a freshly loaded RL agent)
// takes effect immediately. Metadata from Info-aware backends is
// forwarded, which lets an Engine over the dynamic handle refuse
// truncated incumbents.
func Dynamic(r *Registry, name string) InfoScheduler { return dynamicScheduler{r: r, name: name} }

type dynamicScheduler struct {
	r    *Registry
	name string
}

func (d dynamicScheduler) Name() string { return d.name }

func (d dynamicScheduler) Schedule(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
	s, _, err := d.ScheduleInfo(ctx, g, numStages)
	return s, err
}

func (d dynamicScheduler) ScheduleInfo(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, Info, error) {
	b, err := d.r.Lookup(d.name)
	if err != nil {
		return sched.Schedule{}, Info{}, err
	}
	return ScheduleInfo(ctx, b, g, numStages)
}

// defaultRegistry holds the process-wide backend table.
var defaultRegistry = NewRegistry()

// Default returns the package-level registry.
func Default() *Registry { return defaultRegistry }

// Register adds s to the default registry.
func Register(s Scheduler) error { return defaultRegistry.Register(s) }

// Lookup resolves a backend from the default registry.
func Lookup(name string) (Scheduler, error) { return defaultRegistry.Lookup(name) }

// Resolve maps names to backends from the default registry.
func Resolve(names ...string) ([]Scheduler, error) { return defaultRegistry.Resolve(names...) }

// Names lists the default registry's backends, sorted.
func Names() []string { return defaultRegistry.Names() }
