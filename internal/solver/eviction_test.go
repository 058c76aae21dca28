// Tests of the keyed eviction hooks and popularity-aware eviction
// ordering that feed the speculative-warming subsystem.
package solver

import (
	"context"
	"testing"

	"respect/internal/graph"
	"respect/internal/sched"
)

// trivialSolve assigns contiguous topological blocks to stages — a valid
// schedule for any (graph, numStages) with numStages <= |V|.
func trivialSolve(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
	stage := make([]int, g.NumNodes())
	for i, v := range g.Topo() {
		stage[v] = i * numStages / g.NumNodes()
	}
	return sched.Schedule{NumStages: numStages, Stage: stage}, nil
}

// fillCached schedules n distinct graphs through c, returning their
// fingerprints in order.
func fillCached(t *testing.T, c *Engine, n, stages int) []uint64 {
	t.Helper()
	fps := make([]uint64, n)
	for i := 0; i < n; i++ {
		g := chain(int64(100+i), 200, 300)
		fps[i] = g.Fingerprint()
		runSchedule(t, c, g, stages)
	}
	return fps
}

func TestCachedOnEvictReportsKeys(t *testing.T) {
	c := engineOf(NewFunc("t", trivialSolve), 2)
	var evicted []uint64
	var stagesSeen []int
	c.OnEvict(func(fp uint64, numStages int) {
		evicted = append(evicted, fp)
		stagesSeen = append(stagesSeen, numStages)
	})
	fps := fillCached(t, c, 3, 2)
	if len(evicted) != 1 || evicted[0] != fps[0] {
		t.Fatalf("evicted keys = %v, want exactly the oldest %v", evicted, fps[0])
	}
	if stagesSeen[0] != 2 {
		t.Fatalf("evicted stages = %v, want 2", stagesSeen)
	}
	if c.Evictions() != 1 {
		t.Fatalf("Evictions() = %d, want 1", c.Evictions())
	}
}

func TestCachedMultipleEvictHooksRunInOrder(t *testing.T) {
	c := engineOf(NewFunc("t", trivialSolve), 1)
	var order []string
	c.OnEvict(func(uint64, int) { order = append(order, "a") })
	c.OnEvict(func(uint64, int) { order = append(order, "b") })
	fillCached(t, c, 2, 2)
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("hook order = %v, want [a b]", order)
	}
}

// TestCachedPopularityAwareEviction: with a scorer installed, cold
// entries are evicted ahead of a hot-but-older one.
func TestCachedPopularityAwareEviction(t *testing.T) {
	c := engineOf(NewFunc("t", trivialSolve), 3)
	hot := chain(111, 222, 333)
	score := map[uint64]float64{hot.Fingerprint(): 100}
	c.SetEvictionScorer(func(fp uint64, numStages int) float64 { return score[fp] })

	// Schedule hot first: under plain LRU it would be the first victim.
	var evicted []uint64
	c.OnEvict(func(fp uint64, numStages int) { evicted = append(evicted, fp) })
	runSchedule(t, c, hot, 2)
	cold := fillCached(t, c, 3, 2) // three cold graphs push the cache over capacity
	if !c.Contains(hot, 2) {
		t.Fatal("hot entry evicted despite popularity-aware ordering")
	}
	if len(evicted) != 1 || evicted[0] != cold[0] {
		t.Fatalf("evicted = %v, want the oldest cold entry %v", evicted, cold[0])
	}

	// With the scorer removed, plain LRU order resumes and the hot entry
	// (now the oldest untouched entry) goes first.
	c.SetEvictionScorer(nil)
	fillCached(t, c, 3, 3) // distinct stage count: all fresh inserts
	if c.Contains(hot, 2) {
		t.Fatal("hot entry survived beyond plain-LRU capacity")
	}
}

// TestCachedScorerNeverEvictsFreshInsert: with a scorer installed, the
// entry being inserted must never be its own victim — a low-scoring new
// key still lands in the cache (displacing the lowest-scoring resident),
// otherwise put is a silent no-op and the key re-solves forever.
func TestCachedScorerNeverEvictsFreshInsert(t *testing.T) {
	c := engineOf(NewFunc("t", trivialSolve), 2)
	score := map[uint64]float64{}
	c.SetEvictionScorer(func(fp uint64, numStages int) float64 { return score[fp] })

	resident1, resident2 := chain(111, 222, 333), chain(112, 223, 334)
	score[resident1.Fingerprint()] = 50
	score[resident2.Fingerprint()] = 100
	for _, g := range []*graph.Graph{resident1, resident2} {
		runSchedule(t, c, g, 2)
	}
	newcomer := chain(10, 20, 30) // score 0: lowest in the whole cache
	runSchedule(t, c, newcomer, 2)
	if !c.Contains(newcomer, 2) {
		t.Fatal("fresh insert evicted itself under the scorer")
	}
	if !c.Contains(resident2, 2) || c.Contains(resident1, 2) {
		t.Fatal("scorer did not evict the lowest-scoring resident")
	}
}
