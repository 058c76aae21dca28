// In-process tests of speculative warm-cache scheduling: the e2e
// hit-rate-lift replay (skewed traffic against a small cache, strictly
// more hits with speculation on, zero 429s), mutation warming with hit
// attribution on /metrics and /v1/stats, watermark backpressure through a
// saturated admission controller, and the no-cache-write guarantee for
// truncated speculative solves.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"respect/internal/graph"
	"respect/internal/sched"
	"respect/internal/solver"
)

// specChain builds an 8-node chain whose parameters vary with i, so every
// index has a distinct fingerprint.
func specChain(t *testing.T, i int) *graph.Graph {
	t.Helper()
	g := graph.New(fmt.Sprintf("spec-%d", i))
	for n := 0; n < 8; n++ {
		g.AddNode(graph.Node{
			Name:       fmt.Sprintf("n%d", n),
			Kind:       graph.OpConv,
			ParamBytes: int64(1000 + 17*i + n),
			OutBytes:   64,
			MACs:       1000,
		})
		if n > 0 {
			g.AddEdge(n-1, n)
		}
	}
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	return g
}

// graphJSON serializes g in the inline-graph wire format.
func graphJSON(t *testing.T, g *graph.Graph) json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postSchedule sends one /v1/schedule request and decodes the response.
func postSchedule(t *testing.T, url string, body map[string]any) (ScheduleResponse, int) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/schedule", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ScheduleResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return out, resp.StatusCode
}

// specConfig is a one-class interactive server with a given cache size
// and speculation toggled; the hour-long interval keeps the background
// loop quiet so tests drive passes explicitly for determinism.
func specConfig(cacheSize int, specOn bool) Config {
	return Config{
		Stages:     4,
		CacheSize:  cacheSize,
		WarmModels: []string{},
		Classes: map[Class]ClassPolicy{
			ClassInteractive: {
				Budget:        2 * time.Second,
				Backends:      []string{"heur"},
				MaxConcurrent: 8,
				MaxQueue:      8,
				Warm:          true,
			},
		},
		Speculation: SpeculationConfig{
			Enabled:   specOn,
			Watermark: 0.99,
			Budget:    16,
			Interval:  time.Hour,
		},
	}
}

// TestSpeculationHitRateLift is the acceptance replay: skewed traffic (a
// hot graph hammered every round, unique cold graphs churning past) hits
// a two-entry cache. With speculation the hot instance survives the cold
// churn (popularity-aware eviction + re-admission passes); without it,
// plain LRU evicts the hot entry every round. The run with speculation
// must see strictly more cache hits, and neither run may reject anything
// with 429 — speculation never costs admitted capacity.
func TestSpeculationHitRateLift(t *testing.T) {
	const rounds = 8
	hot := specChain(t, 1000)

	replay := func(specOn bool) ClassStats {
		t.Helper()
		s, err := New(specConfig(2, specOn))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		defer ts.Close()

		hotJSON := graphJSON(t, hot)
		cold := 0
		for r := 0; r < rounds; r++ {
			for _, body := range []map[string]any{
				{"graph": hotJSON, "stages": 4},
				{"graph": hotJSON, "stages": 4},
				{"graph": graphJSON(t, specChain(t, cold)), "stages": 4},
				{"graph": graphJSON(t, specChain(t, cold+1)), "stages": 4},
			} {
				if _, code := postSchedule(t, ts.URL, body); code != http.StatusOK {
					t.Fatalf("replay request failed with %d", code)
				}
			}
			cold += 2
			if specOn {
				// Drive the pass the background loop would run: re-admit
				// any evicted hot key before the next round.
				s.classes[ClassInteractive].spec.RunOnce(context.Background())
			}
		}
		st := s.Stats().Classes[string(ClassInteractive)]
		if got := st.RejectedCapacity + st.RejectedQueueTimeout; got != 0 {
			t.Fatalf("speculation=%v: %d requests rejected with 429; speculation must not cost capacity", specOn, got)
		}
		return st
	}

	on := replay(true)
	off := replay(false)
	if on.CacheHits <= off.CacheHits {
		t.Fatalf("no hit-rate lift: %d hits with speculation, %d without", on.CacheHits, off.CacheHits)
	}
	t.Logf("cache hits: %d with speculation, %d without (lift %d)", on.CacheHits, off.CacheHits, on.CacheHits-off.CacheHits)
}

// TestSpeculationMutationWarmAndAttribution: a popular instance's
// stage-count mutations are warmed ahead of demand, the first request for
// a mutated instance is a cache hit attributed to speculation (response
// flag, /v1/stats and /metrics all agree).
func TestSpeculationMutationWarmAndAttribution(t *testing.T) {
	s, err := New(specConfig(64, true))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	g := specChain(t, 2000)
	raw := graphJSON(t, g)
	for i := 0; i < 3; i++ {
		if _, code := postSchedule(t, ts.URL, map[string]any{"graph": raw, "stages": 4}); code != http.StatusOK {
			t.Fatalf("request failed with %d", code)
		}
	}
	stored := s.classes[ClassInteractive].spec.RunOnce(context.Background())
	if stored == 0 {
		t.Fatal("speculation pass stored nothing for a hot instance")
	}

	// The client never asked for 5 stages — speculation did.
	resp, code := postSchedule(t, ts.URL, map[string]any{"graph": raw, "stages": 5})
	if code != http.StatusOK {
		t.Fatalf("mutated-instance request failed with %d", code)
	}
	if !resp.CacheHit || !resp.SpeculativeHit {
		t.Fatalf("mutated instance: cache_hit=%v speculative_hit=%v, want both true", resp.CacheHit, resp.SpeculativeHit)
	}

	stats := s.Stats()
	if stats.Speculation == nil {
		t.Fatal("stats.speculation absent with speculation enabled")
	}
	if stats.Speculation.WarmsMutation == 0 {
		t.Fatalf("no mutation warms counted: %+v", *stats.Speculation)
	}
	if stats.Speculation.Hits == 0 {
		t.Fatalf("speculative hit not counted: %+v", *stats.Speculation)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	page, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(page)
	for _, want := range []string{
		`respect_speculative_warms_total{reason="mutation"}`,
		`respect_speculative_warms_total{reason="popular"}`,
		`respect_speculative_warms_total{reason="evicted"}`,
		"respect_speculative_hits_total 1",
		"respect_speculative_skipped_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestSpeculationIgnoresPinnedRequests: a request that pins its backends
// bypasses the class memo, so it is not demand for that memo — repeating
// it tracks nothing, and the next pass warms nothing.
func TestSpeculationIgnoresPinnedRequests(t *testing.T) {
	s, err := New(specConfig(8, true))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	raw := graphJSON(t, specChain(t, 3000))
	for i := 0; i < 3; i++ {
		body := map[string]any{"graph": raw, "stages": 4, "backends": []string{"heur"}}
		if _, code := postSchedule(t, ts.URL, body); code != http.StatusOK {
			t.Fatalf("pinned request failed with %d", code)
		}
	}
	if n := s.SpeculateOnce(context.Background()); n != 0 {
		t.Fatalf("pass after pinned-only traffic warmed %d entries, want 0", n)
	}
	if st := s.Stats().Speculation; st.TrackedKeys != 0 || st.Attempts != 0 {
		t.Fatalf("pinned requests counted as demand: %+v", *st)
	}
}

// TestSpeculationYieldsUnderSaturatedAdmission: with every admission slot
// held by in-flight work, a speculation pass must warm nothing — the
// watermark gate fully yields capacity to admitted requests.
func TestSpeculationYieldsUnderSaturatedAdmission(t *testing.T) {
	s, err := New(specConfig(64, true))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	g := specChain(t, 3000)
	raw := graphJSON(t, g)
	for i := 0; i < 3; i++ {
		if _, code := postSchedule(t, ts.URL, map[string]any{"graph": raw, "stages": 4}); code != http.StatusOK {
			t.Fatalf("request failed with %d", code)
		}
	}

	// Saturate the class: hold every admission slot directly.
	st := s.classes[ClassInteractive]
	var releases []func()
	for i := 0; i < st.policy.MaxConcurrent; i++ {
		release, err := st.adm.acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		releases = append(releases, release)
	}
	if n := st.spec.RunOnce(context.Background()); n != 0 {
		t.Fatalf("saturated pass stored %d entries, want 0", n)
	}
	specStats := st.spec.Stats()
	if specStats.SkippedWatermark == 0 {
		t.Fatal("saturated pass did not count skipped candidates")
	}
	for _, release := range releases {
		release()
	}
	// Capacity freed: the next pass proceeds.
	if n := st.spec.RunOnce(context.Background()); n == 0 {
		t.Fatal("post-saturation pass stored nothing")
	}
}

// truncatingBackend always reports its (valid) schedule as a budget-cut
// incumbent, like an anytime solver at deadline expiry.
type truncatingBackend struct{}

func (truncatingBackend) Name() string { return "spec-test-trunc" }

func (truncatingBackend) Schedule(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
	s, _, err := truncatingBackend{}.ScheduleInfo(ctx, g, numStages)
	return s, err
}

func (truncatingBackend) ScheduleInfo(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, solver.Info, error) {
	stage := make([]int, g.NumNodes())
	for i, v := range g.Topo() {
		stage[v] = i * numStages / g.NumNodes()
	}
	return sched.Schedule{NumStages: numStages, Stage: stage}, solver.Info{Truncated: true}, nil
}

// TestSpeculationTruncatedSolvesNeverCached: speculative solves that come
// back budget-truncated must leave no cache entry and no speculative
// mark — the cache honesty contract holds on the speculative path too.
func TestSpeculationTruncatedSolvesNeverCached(t *testing.T) {
	if err := solver.Default().Replace(truncatingBackend{}); err != nil {
		t.Fatal(err)
	}
	cfg := specConfig(64, true)
	policy := cfg.Classes[ClassInteractive]
	policy.Backends = []string{"spec-test-trunc"}
	cfg.Classes[ClassInteractive] = policy
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	g := specChain(t, 4000)
	raw := graphJSON(t, g)
	for i := 0; i < 3; i++ {
		resp, code := postSchedule(t, ts.URL, map[string]any{"graph": raw, "stages": 4})
		if code != http.StatusOK {
			t.Fatalf("request failed with %d", code)
		}
		if !resp.Truncated {
			t.Fatal("truncating backend produced a non-truncated response")
		}
	}
	st := s.classes[ClassInteractive]
	if n := st.spec.RunOnce(context.Background()); n != 0 {
		t.Fatalf("truncated speculative solves stored %d cache entries, want 0", n)
	}
	if st.engine.Len() != 0 {
		t.Fatalf("cache holds %d entries after truncated solves, want 0", st.engine.Len())
	}
	if st.spec.WasSpeculative(g.Fingerprint(), 3) || st.spec.WasSpeculative(g.Fingerprint(), 5) {
		t.Fatal("truncated speculative solve left a speculative mark")
	}
	spec := st.spec.Stats()
	if spec.WarmsEvicted+spec.WarmsPopular+spec.WarmsMutation != 0 {
		t.Fatalf("truncated solves counted as warms: %+v", spec)
	}
	if spec.Attempts == 0 {
		t.Fatal("speculative attempts not counted")
	}
}
