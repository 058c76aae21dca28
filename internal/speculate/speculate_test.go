package speculate

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"respect/internal/graph"
	"respect/internal/synth"
)

// testGraph builds a small distinct DAG; i varies the node parameters so
// every index yields a distinct fingerprint.
func testGraph(t testing.TB, i int) *graph.Graph {
	t.Helper()
	g := graph.New(fmt.Sprintf("tg-%d", i))
	a := g.AddNode(graph.Node{Name: "a", Kind: graph.OpInput, ParamBytes: int64(100 + i)})
	b := g.AddNode(graph.Node{Name: "b", Kind: graph.OpConv, ParamBytes: 1 << 10, OutBytes: 64})
	c := g.AddNode(graph.Node{Name: "c", Kind: graph.OpDense, ParamBytes: 2 << 10, OutBytes: 32})
	d := g.AddNode(graph.Node{Name: "d", Kind: graph.OpSoftmax, OutBytes: 16})
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	g.AddEdge(c, d)
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	return g
}

// fakeTarget is an in-memory Target with togglable truncation.
type fakeTarget struct {
	mu       sync.Mutex
	stored   map[Key]bool
	truncate bool // when set, Warm behaves like a budget-cut solve: nothing stored
	warms    int
}

func newFakeTarget() *fakeTarget { return &fakeTarget{stored: make(map[Key]bool)} }

func (f *fakeTarget) key(g *graph.Graph, n int) Key { return Key{FP: g.Fingerprint(), Stages: n} }

func (f *fakeTarget) Contains(g *graph.Graph, n int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stored[f.key(g, n)]
}

func (f *fakeTarget) Warm(ctx context.Context, g *graph.Graph, n int) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.warms++
	if f.truncate {
		return false, nil
	}
	f.stored[f.key(g, n)] = true
	return true, nil
}

func (f *fakeTarget) evict(g *graph.Graph, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.stored, f.key(g, n))
}

func TestTrackerDecayHalves(t *testing.T) {
	now := time.Unix(0, 0)
	tr := NewTracker(time.Minute, 16)
	tr.now = func() time.Time { return now }

	g := testGraph(t, 1)
	key := Key{FP: g.Fingerprint(), Stages: 4}
	for i := 0; i < 8; i++ {
		tr.Observe(g, 4)
	}
	if got := tr.Score(key); got != 8 {
		t.Fatalf("score after 8 observations = %v, want 8", got)
	}
	now = now.Add(time.Minute)
	if got := tr.Score(key); got < 3.99 || got > 4.01 {
		t.Fatalf("score after one half-life = %v, want ~4", got)
	}
	now = now.Add(2 * time.Minute)
	if got := tr.Score(key); got < 0.99 || got > 1.01 {
		t.Fatalf("score after three half-lives = %v, want ~1", got)
	}
}

func TestTrackerCapacityDropsColdest(t *testing.T) {
	now := time.Unix(0, 0)
	tr := NewTracker(time.Minute, 2)
	tr.now = func() time.Time { return now }

	hot, warm, fresh := testGraph(t, 1), testGraph(t, 2), testGraph(t, 3)
	tr.Observe(hot, 4)
	tr.Observe(hot, 4)
	tr.Observe(hot, 4)
	tr.Observe(warm, 4)
	tr.Observe(fresh, 4) // over capacity: warm (score 1 < 3) is dropped
	if tr.Len() != 2 {
		t.Fatalf("tracker len = %d, want 2", tr.Len())
	}
	if tr.Score(Key{FP: warm.Fingerprint(), Stages: 4}) != 0 {
		t.Fatal("coldest key survived the capacity eviction")
	}
	if tr.Score(Key{FP: hot.Fingerprint(), Stages: 4}) != 3 {
		t.Fatal("hottest key was dropped")
	}
}

// TestTrackerGraphRetention: graphs (client-sized memory) are retained
// only once a key's score reaches retainScore, and the node budget sheds
// the coldest graphs while keeping their scores.
func TestTrackerGraphRetention(t *testing.T) {
	tr := NewTracker(time.Minute, 16)
	tr.retainScore = 1.5

	g := testGraph(t, 1)
	key := Key{FP: g.Fingerprint(), Stages: 4}
	tr.Observe(g, 4)
	if tr.Graph(key) != nil {
		t.Fatal("graph retained below retainScore")
	}
	tr.Observe(g, 4)
	if tr.Graph(key) == nil {
		t.Fatal("graph not retained once hot")
	}

	// Node budget: room for exactly one 4-node graph; retaining a second,
	// hotter graph sheds the colder one's graph but keeps its score.
	now := time.Unix(0, 0)
	tb := NewTracker(time.Minute, 16)
	tb.maxNodes = 4
	tb.now = func() time.Time { return now }
	a, b := testGraph(t, 1), testGraph(t, 2)
	keyA := Key{FP: a.Fingerprint(), Stages: 4}
	tb.Observe(a, 4)           // a: score 1, graph retained (at budget)
	now = now.Add(time.Minute) // a decays to 0.5
	tb.Observe(b, 4)           // b: score 1 > a's 0.5 — a's graph is shed
	if tb.Graph(keyA) != nil {
		t.Fatal("node budget kept the colder graph")
	}
	if tb.Graph(Key{FP: b.Fingerprint(), Stages: 4}) == nil {
		t.Fatal("node budget shed the hotter graph")
	}
	if tb.Score(keyA) == 0 {
		t.Fatal("shedding a graph dropped its score")
	}
}

// TestTrackerConcurrentDecay exercises Observe/Score/Hot races under
// -race: decayed counters must stay consistent with concurrent access.
func TestTrackerConcurrentDecay(t *testing.T) {
	tr := NewTracker(time.Minute, 64)
	graphs := make([]*graph.Graph, 8)
	for i := range graphs {
		graphs[i] = testGraph(t, i)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Observe(graphs[(w+i)%len(graphs)], 1+i%4)
				if i%10 == 0 {
					tr.Hot(4)
					tr.Score(Key{FP: graphs[w].Fingerprint(), Stages: 1})
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0.0
	for _, e := range tr.Hot(tr.Len()) {
		total += e.Score
	}
	// 8 workers x 200 observations, halved at most negligibly (test runs
	// far inside one half-life).
	if total < 1500 || total > 1600 {
		t.Fatalf("total decayed mass = %v, want ~1600", total)
	}
}

func TestMutationsStageNeighborsAndPrune(t *testing.T) {
	g := testGraph(t, 1) // 4 nodes, linear
	muts := Mutations(g, 3, 64)
	var stages []int
	pruned := false
	for _, m := range muts {
		if m.Graph == g {
			stages = append(stages, m.Stages)
		}
		if m.Graph.Name == g.Name+"~pruned" {
			pruned = true
			if m.Graph.NumNodes() != g.NumNodes()-1 {
				t.Fatalf("pruned variant has %d nodes, want %d", m.Graph.NumNodes(), g.NumNodes()-1)
			}
			if m.Graph.Fingerprint() == g.Fingerprint() {
				t.Fatal("pruned variant shares the source fingerprint")
			}
		}
	}
	if len(stages) != 2 || stages[0] != 2 || stages[1] != 4 {
		t.Fatalf("stage neighbors = %v, want [2 4]", stages)
	}
	if !pruned {
		t.Fatal("no pruned structural variant generated")
	}
	// Stage growth respects |V|: at stages == |V| only the shrink
	// neighbor survives for the source graph.
	for _, m := range Mutations(g, 4, 64) {
		if m.Graph == g && m.Stages > 4 {
			t.Fatalf("mutation grew stages to %d beyond |V|=4", m.Stages)
		}
	}
}

func TestMutationsZooFamily(t *testing.T) {
	s, err := synth.NewSampler(synth.DefaultConfig(3), 7)
	if err != nil {
		t.Fatal(err)
	}
	syn := s.Sample()
	for _, m := range Mutations(syn, 4, 64) {
		if m.Graph != syn && m.Graph.Name != syn.Name+"~pruned" {
			t.Fatalf("synthetic graph fanned out to unexpected variant %q", m.Graph.Name)
		}
	}

	if got := familyOf("ResNet152v2"); got != "ResNet" {
		t.Fatalf("familyOf(ResNet152v2) = %q", got)
	}
	if got := familyOf("Inception_v3"); got != "Inception" {
		t.Fatalf("familyOf(Inception_v3) = %q", got)
	}
	members := familyMembers("ResNet50")
	if len(members) == 0 || len(members) > maxFamilyVariants {
		t.Fatalf("familyMembers(ResNet50) returned %d graphs", len(members))
	}
	for _, m := range members {
		if m.Name == "ResNet50" || familyOf(m.Name) != "ResNet" {
			t.Fatalf("unexpected family member %q", m.Name)
		}
	}
}

// speculator builds a Speculator over tgt with a controllable occupancy
// probe and no family fan-out noise (synthetic graphs have no family).
func speculator(t *testing.T, tgt Target, occ *float64) *Speculator {
	t.Helper()
	var mu sync.Mutex
	sp, err := New(Config{
		Target: tgt,
		Occupancy: func() float64 {
			mu.Lock()
			defer mu.Unlock()
			return *occ
		},
		Watermark: 0.5,
		Budget:    16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestSpeculatorWarmsPopularAndMutations(t *testing.T) {
	tgt := newFakeTarget()
	occ := 0.0
	sp := speculator(t, tgt, &occ)

	g := testGraph(t, 1)
	sp.ObserveRequest(g, 3)
	sp.ObserveRequest(g, 3)

	stored := sp.RunOnce(context.Background())
	if stored == 0 {
		t.Fatal("pass stored nothing for a hot key")
	}
	if !tgt.Contains(g, 3) {
		t.Fatal("popular key not warmed")
	}
	if !sp.WasSpeculative(g.Fingerprint(), 3) {
		t.Fatal("warmed key not marked speculative")
	}
	// Stage neighbors were speculated too.
	if !tgt.Contains(g, 2) || !tgt.Contains(g, 4) {
		t.Fatal("stage-neighbor mutations not warmed")
	}
	st := sp.Stats()
	if st.WarmsPopular == 0 || st.WarmsMutation == 0 {
		t.Fatalf("stats = %+v, want popular and mutation warms", st)
	}
	if st.SkippedWatermark != 0 {
		t.Fatalf("idle pass skipped %d candidates", st.SkippedWatermark)
	}

	// A second pass finds everything cached and does nothing.
	warmsBefore := tgt.warms
	if n := sp.RunOnce(context.Background()); n != 0 {
		t.Fatalf("second pass stored %d, want 0", n)
	}
	if tgt.warms != warmsBefore {
		t.Fatal("second pass re-solved cached candidates")
	}
}

func TestSpeculatorReAdmitsEvictedHotKeys(t *testing.T) {
	tgt := newFakeTarget()
	occ := 0.0
	sp := speculator(t, tgt, &occ)

	g := testGraph(t, 1)
	sp.ObserveRequest(g, 3)
	sp.ObserveRequest(g, 3)
	sp.RunOnce(context.Background())
	if !tgt.Contains(g, 3) {
		t.Fatal("setup: key not warmed")
	}

	tgt.evict(g, 3)
	sp.ObserveEviction(g.Fingerprint(), 3)
	if sp.WasSpeculative(g.Fingerprint(), 3) {
		t.Fatal("eviction did not clear the speculative mark")
	}
	sp.RunOnce(context.Background())
	if !tgt.Contains(g, 3) {
		t.Fatal("evicted hot key not re-admitted")
	}
	if sp.Stats().WarmsEvicted == 0 {
		t.Fatal("re-admission not counted under reason=evicted")
	}
}

func TestSpeculatorIgnoresColdEvictions(t *testing.T) {
	tgt := newFakeTarget()
	occ := 0.0
	sp := speculator(t, tgt, &occ)

	g := testGraph(t, 1)
	sp.ObserveRequest(g, 3) // score 1 < minScore 1.5: not hot
	sp.ObserveEviction(g.Fingerprint(), 3)
	sp.RunOnce(context.Background())
	if tgt.Contains(g, 3) {
		t.Fatal("cold evicted key was re-admitted")
	}
	if sp.Stats().WarmsEvicted != 0 {
		t.Fatal("cold eviction counted as a warm")
	}
}

// TestSpeculatorYieldsAtWatermark is the backpressure contract: at or
// above the watermark a pass warms nothing at all, and the dropped
// candidates are visible in the skipped counter.
func TestSpeculatorYieldsAtWatermark(t *testing.T) {
	tgt := newFakeTarget()
	occ := 1.0
	sp := speculator(t, tgt, &occ)

	g := testGraph(t, 1)
	sp.ObserveRequest(g, 3)
	sp.ObserveRequest(g, 3)
	if n := sp.RunOnce(context.Background()); n != 0 {
		t.Fatalf("saturated pass stored %d, want 0", n)
	}
	if tgt.warms != 0 {
		t.Fatal("saturated pass ran solves")
	}
	st := sp.Stats()
	if st.SkippedWatermark == 0 {
		t.Fatal("yielded candidates not counted as skipped")
	}
	if st.Attempts != 0 {
		t.Fatalf("attempts = %d under saturation, want 0", st.Attempts)
	}

	// Occupancy drops below the watermark: the next pass proceeds.
	occ = 0.2
	if n := sp.RunOnce(context.Background()); n == 0 {
		t.Fatal("pass below the watermark stored nothing")
	}
}

// TestSpeculatorTruncatedSolvesNotMarked: a Target reporting
// budget-truncated solves (stored == false) must leave no speculative
// marks and no warm counts — mirroring the cache honesty contract that
// truncated results are never written.
func TestSpeculatorTruncatedSolvesNotMarked(t *testing.T) {
	tgt := newFakeTarget()
	tgt.truncate = true
	occ := 0.0
	sp := speculator(t, tgt, &occ)

	g := testGraph(t, 1)
	sp.ObserveRequest(g, 3)
	sp.ObserveRequest(g, 3)
	if n := sp.RunOnce(context.Background()); n != 0 {
		t.Fatalf("truncated pass reported %d stored", n)
	}
	if sp.WasSpeculative(g.Fingerprint(), 3) {
		t.Fatal("truncated solve marked speculative")
	}
	st := sp.Stats()
	if st.WarmsEvicted+st.WarmsPopular+st.WarmsMutation != 0 {
		t.Fatalf("truncated solves counted as warms: %+v", st)
	}
	if st.Attempts == 0 {
		t.Fatal("truncated solves not counted as attempts")
	}
}

func TestSpeculatorHitAttribution(t *testing.T) {
	tgt := newFakeTarget()
	occ := 0.0
	sp := speculator(t, tgt, &occ)

	g := testGraph(t, 1)
	sp.ObserveRequest(g, 3)
	sp.ObserveRequest(g, 3)
	sp.RunOnce(context.Background())

	if !sp.AttributeHit(g.Fingerprint(), 3) {
		t.Fatal("hit on speculative key not attributed")
	}
	if sp.AttributeHit(g.Fingerprint(), 2) && !sp.WasSpeculative(g.Fingerprint(), 2) {
		t.Fatal("attribution disagrees with the speculative set")
	}
	if sp.AttributeHit(testGraph(t, 9).Fingerprint(), 3) {
		t.Fatal("hit on never-speculated key attributed")
	}
	if sp.Stats().Hits < 1 {
		t.Fatal("attributed hits not counted")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil Target accepted")
	}
	if _, err := New(Config{Target: newFakeTarget(), Watermark: 1.5}); err == nil {
		t.Fatal("watermark > 1 accepted")
	}
	if _, err := New(Config{Target: newFakeTarget(), Budget: -1}); err == nil {
		t.Fatal("negative budget accepted")
	}
	sp, err := New(Config{Target: newFakeTarget()})
	if err != nil {
		t.Fatal(err)
	}
	if sp.cfg.Watermark != defaultWatermark || sp.cfg.Budget != defaultBudget ||
		sp.cfg.TopK != defaultTopK || sp.cfg.SolveBudget != defaultSolveBudget {
		t.Fatalf("defaults not applied: %+v", sp.cfg)
	}
}

// TestWatermarkUnsetDisabledDistinct pins the unset/invalid split: zero
// still means "unset, take the default", and negative values are
// rejected with a message that states the actual legal values rather
// than claiming 0 is outside (0,1] while silently accepting it.
func TestWatermarkUnsetDisabledDistinct(t *testing.T) {
	// Rejected negatives name the legal range and the default, so the
	// legal surface is discoverable from the error alone.
	_, err := New(Config{Target: newFakeTarget(), Watermark: -0.5})
	if err == nil {
		t.Fatal("negative watermark accepted")
	}
	for _, want := range []string{"(0,1]", "0.5"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}
