// End-to-end tests of the online learning loop through the HTTP
// surface: skewed replay traffic fills the per-class buffers with exact
// attribution, a driven training round promotes a candidate for the hot
// class, the promoted agent is served through its hot-reloaded backend
// with a measurably better schedule, and an unattainable margin rejects
// every candidate with the rejection metrics to show for it.
package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"respect/internal/graph"
	"respect/internal/ptrnet"
	"respect/internal/serve"
)

// onlineGraphJSON builds one in-tree (binary-reduction) DAG and returns
// its wire form. In-trees keep deployed cost genuinely sensitive to the
// agent's emission order (dense synthetic DAGs collapse under the
// same-stage-children constraint), so training visibly moves the served
// schedule cost.
func onlineGraphJSON(t *testing.T, leaves int, seed int64) json.RawMessage {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(fmt.Sprintf("intree-%d-%d", leaves, seed))
	var cur []int
	for i := 0; i < leaves; i++ {
		cur = append(cur, g.AddNode(graph.Node{Name: "leaf", ParamBytes: int64(50 + rng.Intn(400)), OutBytes: int64(5 + rng.Intn(40))}))
	}
	for len(cur) > 1 {
		var next []int
		for i := 0; i+1 < len(cur); i += 2 {
			v := g.AddNode(graph.Node{Name: "merge", ParamBytes: int64(50 + rng.Intn(400)), OutBytes: int64(5 + rng.Intn(40))})
			g.AddEdge(cur[i], v)
			g.AddEdge(cur[i+1], v)
			next = append(next, v)
		}
		if len(cur)%2 == 1 {
			next = append(next, cur[len(cur)-1])
		}
		cur = next
	}
	var buf bytes.Buffer
	if err := g.MustBuild().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// onlineServeConfig is the shared e2e configuration: two learning
// classes on generous budgets with a deterministic, promotion-friendly
// loop. MinSamples is tuned so the skewed replay trains interactive and
// leaves batch below the floor.
func onlineServeConfig() serve.Config {
	return serve.Config{
		Stages:     4,
		WarmModels: []string{},
		Classes: map[serve.Class]serve.ClassPolicy{
			serve.ClassInteractive: {Budget: 5 * 1e9, Backends: []string{"heur"}, MaxConcurrent: 8, MaxQueue: 16},
			serve.ClassBatch:       {Budget: 5 * 1e9, Backends: []string{"heur"}, MaxConcurrent: 4, MaxQueue: 8},
		},
		Online: serve.OnlineConfig{
			Enabled:    true,
			Margin:     0.01,
			MinSamples: 24,
			BatchSize:  6,
			Steps:      40,
			Seed:       7,
			BufferCap:  256,
		},
	}
}

// replayOnlineTraffic drives the deterministic skewed workload (three
// graphs, 6:3:1) through POST /v1/schedule under the given class and
// returns the graphs' wire forms.
func replayOnlineTraffic(t *testing.T, url, class string, n int) []json.RawMessage {
	t.Helper()
	graphs := []json.RawMessage{
		onlineGraphJSON(t, 8, 11),
		onlineGraphJSON(t, 7, 12),
		onlineGraphJSON(t, 6, 13),
	}
	for i := 0; i < n; i++ {
		pick := 2
		switch {
		case i%10 < 6:
			pick = 0
		case i%10 < 9:
			pick = 1
		}
		resp, body := postJSON(t, url+"/v1/schedule", map[string]any{
			"graph": graphs[pick],
			"class": class,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replay request %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	return graphs
}

// onlineAgentCost measures the online backend's weighted mean schedule
// cost over the replay graphs via portfolio-override requests, which
// bypass the class cache and are never recorded into the buffer.
func onlineAgentCost(t *testing.T, url, backend string, graphs []json.RawMessage) float64 {
	t.Helper()
	weights := []float64{6, 3, 1} // mirror the replay skew
	total, wsum := 0.0, 0.0
	for i, g := range graphs {
		resp, body := postJSON(t, url+"/v1/schedule", map[string]any{
			"graph":    g,
			"class":    "interactive",
			"backends": []string{backend},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("override solve: status %d: %s", resp.StatusCode, body)
		}
		var sr serve.ScheduleResponse
		decodeInto(t, body, &sr)
		if sr.Backend != backend {
			t.Fatalf("override served by %q, want %q", sr.Backend, backend)
		}
		total += weights[i] * (float64(sr.Cost.PeakParamBytes) + 1e-6*float64(sr.Cost.CrossBytes))
		wsum += weights[i]
	}
	return total / wsum
}

// TestOnlineRefusesAgentOfAnotherWidth: a seed agent that cannot decode a
// single embedded graph is refused at New, not left to panic on the
// background loop's first round.
func TestOnlineRefusesAgentOfAnotherWidth(t *testing.T) {
	cfg := onlineServeConfig()
	cfg.Online.Agent = ptrnet.New(ptrnet.Config{InputDim: 9, Hidden: 8, Seed: 1})
	srv, err := serve.New(cfg)
	if err == nil || !strings.Contains(err.Error(), "width 9") || !strings.Contains(err.Error(), "produces 7") {
		t.Fatalf("want an error naming widths 9 and 7, got %v (server %v)", err, srv != nil)
	}
}

func TestOnlineE2EPromotionImprovesServedCost(t *testing.T) {
	srv, ts := newTestServer(t, onlineServeConfig())
	mgr := srv.Online()
	if mgr == nil {
		t.Fatal("online manager not constructed")
	}

	// Skewed replay: 48 interactive (trains), 12 batch (below the
	// MinSamples floor, so only interactive may promote this round).
	graphs := replayOnlineTraffic(t, ts.URL, "interactive", 48)
	replayOnlineTraffic(t, ts.URL, "batch", 12)

	// Attribution must be exact: every request recorded once, under its
	// own class, nothing dropped.
	if got := mgr.Samples("interactive"); got != 48 {
		t.Fatalf("interactive samples %d, want 48", got)
	}
	if got := mgr.Samples("batch"); got != 12 {
		t.Fatalf("batch samples %d, want 12", got)
	}
	if got := mgr.Dropped(); got != 0 {
		t.Fatalf("dropped samples %d, want 0", got)
	}

	backend := "rl-online-interactive"
	preCost := onlineAgentCost(t, ts.URL, backend, graphs)
	if got := mgr.Samples("interactive"); got != 48 {
		t.Fatalf("override requests were recorded: samples %d, want 48", got)
	}

	// Drive the training loop synchronously until the hot class
	// promotes; the loop is deterministic, so this converges identically
	// on every run.
	var promoted bool
	for round := 0; round < 6 && !promoted; round++ {
		for _, res := range mgr.Round(context.Background()) {
			if res.Class == "interactive" && res.Promoted {
				promoted = true
			}
			if res.Class == "batch" && res.Skipped == "" {
				t.Fatalf("batch class trained below MinSamples: %+v", res)
			}
		}
	}
	if !promoted {
		t.Fatalf("no interactive promotion within 6 rounds: %+v", mgr.Stats())
	}

	postCost := onlineAgentCost(t, ts.URL, backend, graphs)
	if postCost >= preCost {
		t.Fatalf("promoted agent served no improvement: %.1f -> %.1f", preCost, postCost)
	}

	// The metrics view must reconcile with what the manager reports.
	series, page := scrapeMetrics(t, ts.URL)
	if got := metricValue(t, series, page, `respect_online_samples_total{class="interactive"}`); got != 48 {
		t.Errorf(`respect_online_samples_total{class="interactive"} = %v, want 48`, got)
	}
	if got := metricValue(t, series, page, `respect_online_samples_total{class="batch"}`); got != 12 {
		t.Errorf(`respect_online_samples_total{class="batch"} = %v, want 12`, got)
	}
	if got := metricValue(t, series, page, `respect_online_promotions_total{class="interactive",result="promoted"}`); got < 1 {
		t.Errorf("promoted counter %v, want >= 1", got)
	}
	if got := metricValue(t, series, page, "respect_online_train_rounds_total"); got < 1 {
		t.Errorf("train rounds %v, want >= 1", got)
	}
	if gap := metricValue(t, series, page, `respect_online_shadow_gap{class="interactive"}`); gap < 0.01 {
		t.Errorf("shadow gap %v below the promotion margin", gap)
	}

	// And so must /v1/stats.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d", resp.StatusCode)
	}
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Online == nil {
		t.Fatal("stats online block missing")
	}
	cs, ok := st.Online.Classes["interactive"]
	if !ok || cs.Promotions < 1 || cs.Samples != 48 || cs.Backend != backend {
		t.Fatalf("stats online interactive block: %+v", cs)
	}
}

func TestOnlineE2EAdversarialMarginRejects(t *testing.T) {
	cfg := onlineServeConfig()
	cfg.Online.Margin = 1e9 // unattainable: every candidate must lose
	srv, ts := newTestServer(t, cfg)
	mgr := srv.Online()

	replayOnlineTraffic(t, ts.URL, "interactive", 48)
	for _, res := range mgr.Round(context.Background()) {
		if res.Promoted {
			t.Fatalf("promotion under an unattainable margin: %+v", res)
		}
	}

	series, page := scrapeMetrics(t, ts.URL)
	if got := metricValue(t, series, page, `respect_online_promotions_total{class="interactive",result="rejected"}`); got != 1 {
		t.Errorf("rejected counter %v, want 1", got)
	}
	if got := metricValue(t, series, page, `respect_online_promotions_total{class="interactive",result="promoted"}`); got != 0 {
		t.Errorf("promoted counter %v, want 0", got)
	}
	if got := mgr.Rejections("interactive"); got != 1 {
		t.Errorf("manager rejections %d, want 1", got)
	}
}
