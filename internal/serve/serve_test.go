// End-to-end tests of the scheduling service over real HTTP
// (net/http/httptest): zoo-name round trips, budget-expiry honesty,
// admission-control rejections, malformed-input status codes and cache
// warm-up behaviour.
package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"respect/internal/embed"
	"respect/internal/exact"
	"respect/internal/graph"
	"respect/internal/models"
	"respect/internal/ptrnet"
	"respect/internal/sched"
	"respect/internal/serve"
	"respect/internal/solver"
)

// newTestServer mounts a service on an httptest listener.
func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	return newTestServerWith(t, cfg, nil)
}

// newTestServerWith applies mutate to the constructed server before the
// httptest listener goroutine starts, so test-hook installs are ordered
// before every handler read of them.
func newTestServerWith(t *testing.T, cfg serve.Config, mutate func(*serve.Server)) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(srv)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// postJSON POSTs v (or raw string bytes) and returns the response with a
// decoded body.
func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	var body []byte
	switch x := v.(type) {
	case string:
		body = []byte(x)
	default:
		var err error
		if body, err = json.Marshal(v); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decodeInto(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
}

func TestScheduleByZooNameRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{WarmModels: []string{}})

	resp, data := postJSON(t, ts.URL+"/v1/schedule",
		serve.ScheduleRequest{Model: "ResNet50", Stages: 4, Class: "interactive"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out serve.ScheduleResponse
	decodeInto(t, data, &out)
	if out.Graph != "ResNet50" || out.Stages != 4 || out.Class != "interactive" {
		t.Fatalf("echo fields wrong: %+v", out)
	}
	if out.Backend == "" || len(out.Outcomes) == 0 {
		t.Fatalf("missing solver telemetry: %+v", out)
	}
	if out.Truncated {
		t.Fatalf("fast heuristics on ResNet50 must not be truncated: %+v", out)
	}

	// The returned stage assignment must be deployment-ready on the real
	// zoo graph.
	g, err := models.Load("ResNet50")
	if err != nil {
		t.Fatal(err)
	}
	s := sched.Schedule{NumStages: out.Stages, Stage: out.Stage}
	if err := s.Validate(g); err != nil {
		t.Fatalf("served schedule invalid: %v", err)
	}
	if !s.SameStageChildrenOK(g) {
		t.Fatal("served schedule is not deployment-ready")
	}
	if got := s.Evaluate(g); got.PeakParamBytes != out.Cost.PeakParamBytes || got.CrossBytes != out.Cost.CrossBytes {
		t.Fatalf("reported cost %+v does not match re-evaluated %v", out.Cost, got)
	}
}

// TestBestEffortServesTheProof: the default best-effort class races
// exact-ilp-grade alone and serves its proven (peak, cross) optimum.
func TestBestEffortServesTheProof(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{WarmModels: []string{}})
	resp, data := postJSON(t, ts.URL+"/v1/schedule",
		serve.ScheduleRequest{Model: "ResNet50", Stages: 4, Class: "best-effort"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out serve.ScheduleResponse
	decodeInto(t, data, &out)
	if out.Backend != "exact-ilp-grade" || out.Truncated || len(out.Outcomes) != 1 || !out.Outcomes[0].Optimal {
		t.Fatalf("best-effort served %+v, want exact-ilp-grade's proof alone", out)
	}
	want := exact.Solve(models.MustLoad("ResNet50"), 4, exact.Options{ChildrenRule: true, TieBreakCross: true}).Cost
	if out.Cost.PeakParamBytes != want.PeakParamBytes || out.Cost.CrossBytes != want.CrossBytes {
		t.Fatalf("best-effort cost %+v, want the joint optimum %v", out.Cost, want)
	}
}

func TestScheduleInlineGraph(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{WarmModels: []string{}})

	g := graph.New("wire")
	for i := 0; i < 6; i++ {
		g.AddNode(graph.Node{Name: fmt.Sprintf("n%d", i), ParamBytes: int64(100 * (i + 1)), OutBytes: 10})
		if i > 0 {
			g.AddEdge(i-1, i)
		}
	}
	g.MustBuild()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, ts.URL+"/v1/schedule",
		serve.ScheduleRequest{Graph: json.RawMessage(buf.Bytes()), Stages: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out serve.ScheduleResponse
	decodeInto(t, data, &out)
	if out.Nodes != 6 || len(out.Stage) != 6 {
		t.Fatalf("wrong shape: %+v", out)
	}
	if err := (sched.Schedule{NumStages: 3, Stage: out.Stage}).Validate(g); err != nil {
		t.Fatal(err)
	}
}

// TestBudgetExpiryReturnsTruncatedIncumbent drives the exact solver into a
// per-class budget it cannot meet (Inception_v3's wide DAG keeps the
// branch-and-bound search open for far longer than the budget): the
// service must answer within (about) the budget with a valid incumbent
// schedule and the honest truncated flag, never a fake full-effort result.
func TestBudgetExpiryReturnsTruncatedIncumbent(t *testing.T) {
	budget := 100 * time.Millisecond
	_, ts := newTestServer(t, serve.Config{
		WarmModels: []string{},
		Classes: map[serve.Class]serve.ClassPolicy{
			"exact-only": {Budget: budget, Backends: []string{"exact"}, MaxConcurrent: 2, MaxQueue: 2},
		},
	})

	start := time.Now()
	resp, data := postJSON(t, ts.URL+"/v1/schedule",
		serve.ScheduleRequest{Model: "Inception_v3", Stages: 6, Class: "exact-only"})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if elapsed > budget+2*time.Second {
		t.Fatalf("request took %v, budget was %v: deadline not enforced", elapsed, budget)
	}
	var out serve.ScheduleResponse
	decodeInto(t, data, &out)
	if !out.Truncated {
		t.Fatalf("budget-cut exact solve must be flagged truncated: %+v", out.Outcomes)
	}
	g, _ := models.Load("Inception_v3")
	if err := (sched.Schedule{NumStages: 6, Stage: out.Stage}).Validate(g); err != nil {
		t.Fatalf("truncated incumbent still must be valid: %v", err)
	}

	// A truncated incumbent must not be cached: the same request misses
	// again (no cache_hit on either call).
	if out.CacheHit {
		t.Fatal("first request cannot be a cache hit")
	}
	_, data = postJSON(t, ts.URL+"/v1/schedule",
		serve.ScheduleRequest{Model: "Inception_v3", Stages: 6, Class: "exact-only"})
	var out2 serve.ScheduleResponse
	decodeInto(t, data, &out2)
	if out2.CacheHit {
		t.Fatal("truncated incumbent was cached and served as a hit")
	}
}

// chainsJSON is the wire document of k disjoint chains of n nodes each.
func chainsJSON(t *testing.T, k, n int) json.RawMessage {
	t.Helper()
	g := graph.New("chain")
	for i := 0; i < k*n; i++ {
		g.AddNode(graph.Node{Name: fmt.Sprintf("n%d", i), ParamBytes: int64(1000 + i%7), OutBytes: 10})
		if i%n > 0 {
			g.AddEdge(i-1, i)
		}
	}
	var buf bytes.Buffer
	if err := g.MustBuild().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// briefRLServer serves an untrained agent of the served size as rl, with
// a "brief" class whose 5 ms budget a 600-class decode outlasts.
func briefRLServer(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	ecfg := embed.Default()
	registerBackend(t, solver.RL(ptrnet.New(ptrnet.Config{InputDim: ecfg.Dim(), Hidden: 64, Seed: 1}), ecfg))
	return newTestServer(t, serve.Config{
		WarmModels: []string{},
		Classes: map[serve.Class]serve.ClassPolicy{
			"brief": {Budget: 5 * time.Millisecond, Backends: []string{"heur"}, MaxConcurrent: 2, MaxQueue: 2},
		},
	})
}

// TestPinnedRLPastBudgetIs504: a request pinned to the rl backend on a
// graph whose decode outlasts the class budget is a timeout like any
// other backend's, not a 200 delivered a decode late. The graph is two
// 300-node chains: no node has two children, so the agent decodes one
// class per node, and 600 of them take tens of milliseconds.
func TestPinnedRLPastBudgetIs504(t *testing.T) {
	srv, ts := briefRLServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/schedule",
		serve.ScheduleRequest{Graph: chainsJSON(t, 2, 300), Stages: 4, Class: "brief", Backends: []string{"rl"}})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), context.DeadlineExceeded.Error()) {
		t.Fatalf("504 body does not name the deadline: %s", data)
	}
	if st := srv.Stats().Classes["brief"]; st.Admitted != 1 {
		t.Fatalf("class stats %+v, want the one request admitted", st)
	}
}

// TestPinnedRLOneOrderChainIs200: a single 600-node chain has one class
// order, which rl deploys without running the network, so the same
// request that is a 504 on two chains answers inside the 5 ms budget.
func TestPinnedRLOneOrderChainIs200(t *testing.T) {
	_, ts := briefRLServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/schedule",
		serve.ScheduleRequest{Graph: chainsJSON(t, 1, 600), Stages: 4, Class: "brief", Backends: []string{"rl"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", resp.StatusCode, data)
	}
	var out serve.ScheduleResponse
	decodeInto(t, data, &out)
	if out.Backend != "rl" || out.Nodes != 600 {
		t.Fatalf("backend %q on %d nodes, want rl on 600", out.Backend, out.Nodes)
	}
}

// TestPanickingBackendIsContained: a backend that panics mid-solve loses
// the race it is in; pinned alone it makes that one request a 500, and
// the server goes on serving.
func TestPanickingBackendIsContained(t *testing.T) {
	registerBackend(t, solver.NewFunc("e2e-panic", func(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
		panic("e2e-panic: fault injected by the test")
	}))
	srv, ts := newTestServer(t, serve.Config{WarmModels: []string{}})

	resp, data := postJSON(t, ts.URL+"/v1/schedule",
		serve.ScheduleRequest{Model: "ResNet50", Stages: 4, Backends: []string{"heur", "e2e-panic"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raced with heur: status %d, want 200: %s", resp.StatusCode, data)
	}
	var out serve.ScheduleResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Backend != "heur" || !strings.Contains(string(data), `backend \"e2e-panic\" panicked`) {
		t.Fatalf("backend %q; the outcome table should name the panic: %s", out.Backend, data)
	}

	resp, data = postJSON(t, ts.URL+"/v1/schedule",
		serve.ScheduleRequest{Model: "ResNet50", Stages: 4, Backends: []string{"e2e-panic"}})
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(data), "fault injected by the test") {
		t.Fatalf("pinned alone: status %d, want 500 naming the panic: %s", resp.StatusCode, data)
	}

	resp, data = postJSON(t, ts.URL+"/v1/schedule", serve.ScheduleRequest{Model: "ResNet50", Stages: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("the request after the panic: status %d: %s", resp.StatusCode, data)
	}
	if st := srv.Stats().Classes[string(serve.ClassInteractive)]; st.Admitted != 3 {
		t.Fatalf("class stats %+v, want all three requests admitted", st)
	}
}

// registerBackend registers a test backend with the global solver
// registry, tolerating re-registration: -count>1 re-runs tests in one
// process, and the registry keeps the first (behaviorally identical)
// instance.
func registerBackend(t *testing.T, s solver.Scheduler) {
	t.Helper()
	if err := solver.Register(s); err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
}

// gate coordinates a gated backend with the test driving it: Schedule
// signals started, then parks — ignoring cancellation — until the test
// closes the release channel. The registry keeps the first registered
// instance across -count>1 runs, so the backend reads its channels
// through the gate and each test re-arms fresh ones.
type gate struct {
	mu      sync.Mutex
	started chan struct{}
	release chan struct{}
}

// arm installs and returns fresh channels for one test run.
func (g *gate) arm() (started <-chan struct{}, release chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.started = make(chan struct{}, 64)
	g.release = make(chan struct{})
	return g.started, g.release
}

func (g *gate) chans() (chan struct{}, chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.started, g.release
}

// gatedBackend holds its admission slot deterministically: the portfolio
// waits for every backend even past its deadline, so the slot stays
// occupied exactly until the test opens the gate — no wall-clock sleeps
// and no guessing how long a slot-holder needs to linger.
type gatedBackend struct {
	name string
	g    *gate
}

func (b gatedBackend) Name() string { return b.name }
func (b gatedBackend) Schedule(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
	started, release := b.g.chans()
	select {
	case started <- struct{}{}:
	default:
	}
	<-release
	return sched.Schedule{}, context.DeadlineExceeded
}

var overloadGate = &gate{}

func TestAdmissionControlRejectsOverload(t *testing.T) {
	registerBackend(t, gatedBackend{name: "e2e-block", g: overloadGate})
	started, release := overloadGate.arm()
	budget := 400 * time.Millisecond
	srv, ts := newTestServer(t, serve.Config{
		WarmModels: []string{},
		Classes: map[serve.Class]serve.ClassPolicy{
			"tiny": {Budget: budget, Backends: []string{"e2e-block"}, MaxConcurrent: 1, MaxQueue: 0},
		},
	})

	// Occupy the only slot, then hit the class with more requests: with a
	// zero-depth queue every one of them must be rejected immediately with
	// 429 + Retry-After rather than queued into everyone's budget.
	// post is a goroutine-safe POST (no t.Fatal off the test goroutine).
	post := func(req serve.ScheduleRequest) (*http.Response, []byte, error) {
		body, err := json.Marshal(req)
		if err != nil {
			return nil, nil, err
		}
		resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		return resp, data, err
	}

	req := serve.ScheduleRequest{Model: "Xception", Class: "tiny"}
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		_, _, _ = post(req)
	}()
	// The backend signals once it runs — i.e. once the first request
	// holds the class's only slot.
	<-started

	var rejected int
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data, err := post(req)
			if err != nil {
				t.Errorf("post: %v", err)
				return
			}
			if resp.StatusCode == http.StatusTooManyRequests {
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				var e serve.ErrorResponse
				if err := json.Unmarshal(data, &e); err != nil || !strings.Contains(e.Error, "capacity") {
					t.Errorf("unexpected 429 body: %s", data)
				}
				mu.Lock()
				rejected++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(release)
	<-firstDone
	if rejected == 0 {
		t.Fatal("no request was rejected under synthetic overload")
	}
	st := srv.Stats().Classes["tiny"]
	if st.RejectedCapacity == 0 {
		t.Fatalf("stats did not record capacity rejections: %+v", st)
	}
}

// sleepIgnoringCtx holds its admission slot for a fixed wall time
// regardless of cancellation, so a queued request's budget deterministically
// expires before the slot frees.
type sleepIgnoringCtx struct {
	name string
	d    time.Duration
}

func (b sleepIgnoringCtx) Name() string { return b.name }
func (b sleepIgnoringCtx) Schedule(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
	//lint:ignore nosleeptest the fixture deliberately ignores cancellation to hold its admission slot
	time.Sleep(b.d)
	return sched.Schedule{}, context.DeadlineExceeded
}

var queueGate = &gate{}

func TestAdmissionQueueTimeout(t *testing.T) {
	registerBackend(t, gatedBackend{name: "e2e-gate-q", g: queueGate})
	started, release := queueGate.arm()
	srv, ts := newTestServer(t, serve.Config{
		WarmModels: []string{},
		Classes: map[serve.Class]serve.ClassPolicy{
			"queued": {Budget: 250 * time.Millisecond, Backends: []string{"e2e-gate-q"}, MaxConcurrent: 1, MaxQueue: 4},
		},
	})
	req := serve.ScheduleRequest{Model: "Xception", Class: "queued"}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	// The gate holds the slot until the test opens it, so the queued
	// request below can never be admitted inside its budget.
	<-started
	// The second request fits in the queue but can never be admitted
	// within its budget; it must come back 429 after about one budget.
	resp, _ := postJSON(t, ts.URL+"/v1/schedule", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queued-past-budget request: status %d, want 429", resp.StatusCode)
	}
	close(release)
	<-done
	if st := srv.Stats().Classes["queued"]; st.RejectedQueueTimeout == 0 {
		t.Fatalf("queue timeout not recorded: %+v", st)
	}
}

func TestMalformedAndUnknownInputs(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{WarmModels: []string{}})
	cases := []struct {
		name string
		body any
		want int
	}{
		{"syntactically broken JSON", `{"model": "ResNet50"`, http.StatusBadRequest},
		{"unknown top-level field", `{"moodel": "ResNet50"}`, http.StatusBadRequest},
		{"neither model nor graph", serve.ScheduleRequest{}, http.StatusBadRequest},
		{"both model and graph", `{"model":"ResNet50","graph":{"name":"g","nodes":[],"edges":[]}}`, http.StatusBadRequest},
		{"unknown model", serve.ScheduleRequest{Model: "NoSuchNet"}, http.StatusNotFound},
		{"unknown class", serve.ScheduleRequest{Model: "ResNet50", Class: "platinum"}, http.StatusBadRequest},
		{"unknown backend override", serve.ScheduleRequest{Model: "ResNet50", Backends: []string{"nope"}}, http.StatusBadRequest},
		{"stages out of range", serve.ScheduleRequest{Model: "ResNet50", Stages: -2}, http.StatusBadRequest},
		{"graph with out-of-range edge", `{"graph":{"name":"g","nodes":[{"name":"a","kind":"conv"}],"edges":[[0,7]]}}`, http.StatusBadRequest},
		{"graph with a cycle", `{"graph":{"name":"g","nodes":[{"name":"a"},{"name":"b"}],"edges":[[0,1],[1,0]]}}`, http.StatusBadRequest},
		{"empty graph", `{"graph":{"name":"g","nodes":[],"edges":[]}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postJSON(t, ts.URL+"/v1/schedule", tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.want, data)
			}
			var e serve.ErrorResponse
			decodeInto(t, data, &e)
			if e.Error == "" {
				t.Fatalf("error body missing: %s", data)
			}
		})
	}

	// Method discipline.
	resp, err := http.Get(ts.URL + "/v1/schedule")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/schedule: status %d, want 405", resp.StatusCode)
	}
}

func TestWarmUpYieldsHitsOnFirstZooRequest(t *testing.T) {
	warm := []string{"ResNet50", "Xception"}
	srv, ts := newTestServer(t, serve.Config{Stages: 4, WarmModels: warm})
	n, err := srv.WarmUp(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n < len(warm) {
		t.Fatalf("warm-up stored %d schedules, want at least %d", n, len(warm))
	}
	for _, model := range warm {
		resp, data := postJSON(t, ts.URL+"/v1/schedule",
			serve.ScheduleRequest{Model: model, Class: "interactive"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", model, resp.StatusCode, data)
		}
		var out serve.ScheduleResponse
		decodeInto(t, data, &out)
		if !out.CacheHit {
			t.Fatalf("%s: first request after warm-up should hit the cache: %+v", model, out)
		}
	}
	var st serve.Stats
	resp, data := func() (*http.Response, []byte) {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp, data
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	decodeInto(t, data, &st)
	if st.WarmedSchedules < int64(len(warm)) {
		t.Fatalf("stats warmed = %d, want >= %d", st.WarmedSchedules, len(warm))
	}
	if cs := st.Classes["interactive"]; cs.CacheHits < uint64(len(warm)) {
		t.Fatalf("interactive cache hits = %d, want >= %d", cs.CacheHits, len(warm))
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{WarmModels: []string{}})
	resp, data := postJSON(t, ts.URL+"/v1/batch", serve.BatchRequest{
		Models: []string{"ResNet50", "ResNet50", "Xception"},
		Stages: 4, Backend: "heur", Jobs: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out serve.BatchResponse
	decodeInto(t, data, &out)
	if out.Count != 3 || out.Errors != 0 || len(out.Items) != 3 {
		t.Fatalf("batch shape wrong: %+v", out)
	}
	if out.Items[0].Graph != "ResNet50" || out.Items[2].Graph != "Xception" {
		t.Fatalf("items out of input order: %+v", out.Items)
	}
	if out.Items[0].CacheHit {
		t.Fatal("first ResNet50 solve cannot be a hit")
	}
	if !out.Items[1].CacheHit {
		t.Fatal("repeated ResNet50 should hit the fingerprint cache")
	}
	for _, item := range out.Items {
		g, _ := models.Load(item.Graph)
		if err := (sched.Schedule{NumStages: 4, Stage: item.Stage}).Validate(g); err != nil {
			t.Fatalf("%s: %v", item.Graph, err)
		}
	}

	// A budget-cut batch item carries the same honesty flag as
	// /v1/schedule: exact on Inception_v3 cannot finish inside the
	// interactive budget, so its incumbent must be marked truncated.
	resp, data = postJSON(t, ts.URL+"/v1/batch", serve.BatchRequest{
		Models: []string{"Inception_v3"}, Stages: 6,
		Backend: "exact", Class: "interactive", Jobs: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("truncated batch: status %d: %s", resp.StatusCode, data)
	}
	var cut serve.BatchResponse
	decodeInto(t, data, &cut)
	if len(cut.Items) != 1 || cut.Items[0].Error != "" {
		t.Fatalf("truncated batch shape: %+v", cut)
	}
	if !cut.Items[0].Truncated {
		t.Fatalf("budget-cut batch item not flagged truncated: %+v", cut.Items[0])
	}

	// Malformed batch bodies.
	for _, body := range []any{
		serve.BatchRequest{},
		`{"models": ["ResNet50"], "backend": "nope"}`,
		`{"graphs": [ {"name":"g","nodes":[],"edges":[]} ]}`,
	} {
		resp, _ := postJSON(t, ts.URL+"/v1/batch", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %v: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestBackendsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{WarmModels: []string{}})
	resp, err := http.Get(ts.URL + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out serve.BackendsResponse
	decodeInto(t, data, &out)
	if len(out.Backends) == 0 || len(out.Models) == 0 {
		t.Fatalf("empty listing: %+v", out)
	}
	found := false
	for _, b := range out.Backends {
		if b == "exact" {
			found = true
		}
	}
	if !found {
		t.Fatalf("exact missing from %v", out.Backends)
	}
	for _, class := range []string{"interactive", "batch", "best-effort"} {
		p, ok := out.Classes[class]
		if !ok || p.BudgetMS <= 0 || len(p.Backends) == 0 || p.MaxConcurrent < 1 {
			t.Fatalf("class %s policy malformed: %+v", class, p)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{WarmModels: []string{}})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cases := []serve.Config{
		{Classes: map[serve.Class]serve.ClassPolicy{"x": {Budget: time.Second, Backends: []string{"no-such"}, MaxConcurrent: 1}}},
		{Classes: map[serve.Class]serve.ClassPolicy{"x": {Budget: 0, Backends: []string{"heur"}, MaxConcurrent: 1}}},
		{Classes: map[serve.Class]serve.ClassPolicy{"x": {Budget: time.Second, Backends: nil, MaxConcurrent: 1}}},
		{Classes: map[serve.Class]serve.ClassPolicy{"x": {Budget: time.Second, Backends: []string{"heur"}, MaxConcurrent: 0}}},
		{Classes: map[serve.Class]serve.ClassPolicy{"x": {Budget: time.Second, Backends: []string{"heur"}, MaxConcurrent: 1, MaxQueue: -1}}},
		{WarmModels: []string{"NoSuchNet"}},
		{Stages: 1000},
		{MaxBodyBytes: -1},
		{LatencyBuckets: []float64{-0.5}},
		{LatencyBuckets: []float64{math.NaN()}}, // NaN fails every <= check; must error, not panic
	}
	for i, cfg := range cases {
		if _, err := serve.New(cfg); err == nil {
			t.Errorf("case %d: New accepted invalid config", i)
		}
	}
}
