// End-to-end tests of the observability subsystem: the Prometheus
// exposition on GET /metrics (and its reconciliation with /v1/stats),
// per-request traces, oversized-body handling, cause-derived Retry-After
// hints, and request-validation edge cases.
package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"respect/internal/serve"
)

// scrapeMetrics GETs /metrics and parses the text exposition into a
// series -> value map (comment lines skipped), returning the raw page too
// for error output.
func scrapeMetrics(t *testing.T, base string) (map[string]float64, string) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics Content-Type %q lacks the exposition version", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(data)
	out := make(map[string]float64)
	for _, line := range strings.Split(page, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, page
}

// metricValue asserts a series exists and returns its value.
func metricValue(t *testing.T, series map[string]float64, page, key string) float64 {
	t.Helper()
	v, ok := series[key]
	if !ok {
		t.Fatalf("series %q missing from exposition:\n%s", key, page)
	}
	return v
}

// TestMetricsReconcileWithStats is the acceptance test: drive known
// traffic, scrape /metrics, and check every advertised counter agrees
// with the /v1/stats JSON view of the same server.
func TestMetricsReconcileWithStats(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{WarmModels: []string{}})

	// 4 interactive requests: ResNet50 miss + 2 hits, Xception miss.
	for _, model := range []string{"ResNet50", "ResNet50", "ResNet50", "Xception"} {
		resp, data := postJSON(t, ts.URL+"/v1/schedule",
			serve.ScheduleRequest{Model: model, Class: "interactive"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", model, resp.StatusCode, data)
		}
	}
	// 1 batch request over two distinct models (2 batch-cache misses).
	resp, data := postJSON(t, ts.URL+"/v1/batch", serve.BatchRequest{
		Models: []string{"ResNet50", "Xception"}, Backend: "heur", Jobs: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, data)
	}
	// 2 invalid interactive requests (stages beyond the cap, a graph
	// defect) for the invalid outcome label.
	for _, body := range []any{
		serve.ScheduleRequest{Model: "ResNet50", Stages: -1},
		`{"graph":{"nodes":[{"name":"a","param_bytes":-5},{"name":"b"}],"edges":[[0,1]]}}`,
	} {
		if resp, _ := postJSON(t, ts.URL+"/v1/schedule", body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("invalid request %v: status %d, want 400", body, resp.StatusCode)
		}
	}

	series, page := scrapeMetrics(t, ts.URL)

	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var st serve.Stats
	statsData, _ := io.ReadAll(statsResp.Body)
	decodeInto(t, statsData, &st)

	inter := st.Classes["interactive"]
	checks := []struct {
		series string
		want   float64
	}{
		{`respect_admission_requests_total{class="interactive",result="admitted"}`, float64(inter.Admitted)},
		{`respect_admission_requests_total{class="interactive",result="rejected_capacity"}`, float64(inter.RejectedCapacity)},
		{`respect_admission_requests_total{class="interactive",result="rejected_timeout"}`, float64(inter.RejectedQueueTimeout)},
		{`respect_schedule_cache_ops_total{cache="interactive",op="hit"}`, float64(inter.CacheHits)},
		{`respect_schedule_cache_ops_total{cache="interactive",op="miss"}`, float64(inter.CacheMisses)},
		{`respect_schedule_cache_ops_total{cache="interactive",op="evict"}`, float64(inter.CacheEvictions)},
		{`respect_active_requests{class="interactive"}`, float64(inter.Active)},
		{`respect_queued_requests{class="interactive"}`, float64(inter.Queued)},
		{`respect_request_duration_seconds_count{class="interactive",outcome="ok"}`, 4},
		{`respect_request_duration_seconds_count{class="interactive",outcome="invalid"}`, 2},
		{`respect_request_duration_seconds_count{class="batch",outcome="ok"}`, 1},
		{`respect_admission_requests_total{class="batch",result="admitted"}`, 1},
		{`respect_schedule_cache_ops_total{cache="batch/heur",op="miss"}`, 2},
		{`respect_schedule_cache_ops_total{cache="batch/heur",op="hit"}`, 0},
	}
	for _, c := range checks {
		if got := metricValue(t, series, page, c.series); got != c.want {
			t.Errorf("%s = %v, want %v", c.series, got, c.want)
		}
	}

	// Hard numbers for the driven traffic, independent of the stats view.
	if got := metricValue(t, series, page, `respect_admission_requests_total{class="interactive",result="admitted"}`); got != 4 {
		t.Errorf("interactive admitted = %v, want 4", got)
	}
	if hits := metricValue(t, series, page, `respect_schedule_cache_ops_total{cache="interactive",op="hit"}`); hits != 2 {
		t.Errorf("interactive cache hits = %v, want 2", hits)
	}

	// The scrape itself was a request: stats (fetched one request later)
	// must be exactly one ahead of the scraped total.
	if got := metricValue(t, series, page, "respect_http_requests_total"); float64(st.Requests) != got+1 {
		t.Errorf("respect_http_requests_total = %v, stats.Requests = %d, want stats = scrape+1", got, st.Requests)
	}

	// Two interactive misses ran two races: portfolio wins across the
	// interactive engine must sum to 2, and every raced backend reports a
	// latency histogram.
	winSum := 0.0
	for k, v := range series {
		if strings.HasPrefix(k, `respect_portfolio_wins_total{engine="interactive"`) {
			winSum += v
		}
	}
	if winSum != 2 {
		t.Errorf("interactive portfolio wins sum to %v, want 2\n%s", winSum, page)
	}
	for _, backend := range []string{"heur", "compiler"} {
		key := fmt.Sprintf(`respect_backend_schedule_duration_seconds_count{engine="interactive",backend=%q}`, backend)
		if got := metricValue(t, series, page, key); got != 2 {
			t.Errorf("%s = %v, want 2", key, got)
		}
	}

	// Histogram self-consistency: the +Inf bucket equals the count.
	inf := metricValue(t, series, page, `respect_request_duration_seconds_bucket{class="interactive",outcome="ok",le="+Inf"}`)
	cnt := metricValue(t, series, page, `respect_request_duration_seconds_count{class="interactive",outcome="ok"}`)
	if inf != cnt {
		t.Errorf("+Inf bucket %v != count %v", inf, cnt)
	}
}

func TestMetricsEndpointCanBeDisabled(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{WarmModels: []string{}, DisableMetrics: true})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled /metrics: status %d, want 404", resp.StatusCode)
	}
}

func TestCustomLatencyBuckets(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		WarmModels:     []string{},
		LatencyBuckets: []float64{0.001, 1},
	})
	if resp, data := postJSON(t, ts.URL+"/v1/schedule",
		serve.ScheduleRequest{Model: "ResNet50"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	series, page := scrapeMetrics(t, ts.URL)
	metricValue(t, series, page, `respect_request_duration_seconds_bucket{class="interactive",outcome="ok",le="0.001"}`)
	metricValue(t, series, page, `respect_request_duration_seconds_bucket{class="interactive",outcome="ok",le="1"}`)
	if _, ok := series[`respect_request_duration_seconds_bucket{class="interactive",outcome="ok",le="0.005"}`]; ok {
		t.Fatal("default bucket present despite LatencyBuckets override")
	}
}

// TestRequestTrace exercises the opt-in per-request timeline: a miss
// carries the full race (winner present, coherent offsets), a hit records
// the cache consult with no race, and requests that do not opt in get no
// trace at all.
func TestRequestTrace(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{WarmModels: []string{}})

	// Miss: full timeline.
	resp, data := postJSON(t, ts.URL+"/v1/schedule",
		serve.ScheduleRequest{Model: "ResNet50", Class: "interactive", Trace: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out serve.ScheduleResponse
	decodeInto(t, data, &out)
	tr := out.Trace
	if tr == nil {
		t.Fatalf("trace requested but absent: %s", data)
	}
	if tr.Cache != "miss" || out.CacheHit {
		t.Fatalf("first request should be a traced miss: cache=%q hit=%v", tr.Cache, out.CacheHit)
	}
	if tr.QueueWaitMS < 0 || tr.SolveMS <= 0 || tr.TotalMS < tr.SolveMS {
		t.Fatalf("incoherent trace timings: %+v", tr)
	}
	if len(tr.Backends) == 0 {
		t.Fatalf("miss trace has no backend timeline: %+v", tr)
	}
	winners := 0
	for _, b := range tr.Backends {
		if b.StartMS < 0 || b.FinishMS < b.StartMS {
			t.Fatalf("backend %s: incoherent window [%v, %v]", b.Backend, b.StartMS, b.FinishMS)
		}
		switch b.Outcome {
		case "winner":
			winners++
		case "ok", "cancelled", "error":
		default:
			t.Fatalf("backend %s: unknown outcome %q", b.Backend, b.Outcome)
		}
	}
	if winners != 1 {
		t.Fatalf("trace has %d winners, want 1: %+v", winners, tr.Backends)
	}
	if b := tr.Backends[0]; b.Backend != out.Outcomes[0].Backend {
		t.Fatalf("trace order %q diverges from outcomes order %q", b.Backend, out.Outcomes[0].Backend)
	}

	// Hit: cache consult recorded, no race timeline.
	_, data = postJSON(t, ts.URL+"/v1/schedule",
		serve.ScheduleRequest{Model: "ResNet50", Class: "interactive", Trace: true})
	var hitOut serve.ScheduleResponse
	decodeInto(t, data, &hitOut)
	if hitOut.Trace == nil || hitOut.Trace.Cache != "hit" || !hitOut.CacheHit {
		t.Fatalf("second request should be a traced hit: %s", data)
	}
	if len(hitOut.Trace.Backends) != 0 {
		t.Fatalf("cache hit must not report a race timeline: %+v", hitOut.Trace)
	}

	// No opt-in, no trace.
	_, data = postJSON(t, ts.URL+"/v1/schedule",
		serve.ScheduleRequest{Model: "ResNet50", Class: "interactive"})
	var plain serve.ScheduleResponse
	decodeInto(t, data, &plain)
	if plain.Trace != nil {
		t.Fatalf("trace present without opt-in: %s", data)
	}

	// Backend override: the cache is bypassed and the trace says so.
	_, data = postJSON(t, ts.URL+"/v1/schedule",
		serve.ScheduleRequest{Model: "ResNet50", Backends: []string{"heur"}, Trace: true})
	var byp serve.ScheduleResponse
	decodeInto(t, data, &byp)
	if byp.Trace == nil || byp.Trace.Cache != "bypass" {
		t.Fatalf("override request should trace a cache bypass: %s", data)
	}
}

// TestOversizedBodyReturns413 posts bodies beyond the configured cap to
// both POST endpoints: the service must answer 413 Request Entity Too
// Large (not a generic 400 decode error) with a JSON error body.
func TestOversizedBodyReturns413(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{WarmModels: []string{}, MaxBodyBytes: 1024})
	huge := `{"model":"` + strings.Repeat("x", 4096) + `"}`
	for _, path := range []string{"/v1/schedule", "/v1/batch"} {
		resp, data := postJSON(t, ts.URL+path, huge)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413 (%s)", path, resp.StatusCode, data)
		}
		var e serve.ErrorResponse
		decodeInto(t, data, &e)
		if !strings.Contains(e.Error, "1024") {
			t.Fatalf("%s: 413 body should name the limit: %s", path, data)
		}
	}

	// A body inside the cap still works.
	resp, data := postJSON(t, ts.URL+"/v1/schedule", serve.ScheduleRequest{Model: "ResNet50"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-cap request: status %d: %s", resp.StatusCode, data)
	}
}

// TestRetryAfterDiffersByCause drives one class into both rejection
// modes: a queue-full rejection must advertise a longer Retry-After than
// a queue-timeout rejection — the latter's client has already waited out
// a whole budget, so telling it to wait another full budget would be a
// lie about the queue it nearly cleared.
var raGate = &gate{}

func TestRetryAfterDiffersByCause(t *testing.T) {
	// The slot-holder must keep its slot past the queued request's whole
	// budget, or the queued request would be admitted instead of timing
	// out — hence a gated backend the test releases only at the end.
	registerBackend(t, gatedBackend{name: "e2e-gate-ra", g: raGate})
	started, release := raGate.arm()
	budget := 600 * time.Millisecond
	queuedc := make(chan struct{}, 4)
	_, ts := newTestServerWith(t, serve.Config{
		WarmModels: []string{},
		Classes: map[serve.Class]serve.ClassPolicy{
			"ra": {Budget: budget, Backends: []string{"e2e-gate-ra"}, MaxConcurrent: 1, MaxQueue: 1},
		},
	}, func(s *serve.Server) {
		s.SetQueuedHook("ra", func() { queuedc <- struct{}{} })
	})
	req := serve.ScheduleRequest{Model: "Xception", Class: "ra"}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	post := func() (*http.Response, error) {
		return http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
	}

	// Request 1 occupies the only slot until the gate opens.
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		if resp, err := post(); err == nil {
			resp.Body.Close()
		}
	}()
	<-started

	// Request 2 queues; it can never be admitted inside its budget, so it
	// will come back as a queue-timeout rejection.
	queuedResp := make(chan *http.Response, 1)
	go func() {
		if resp, err := post(); err == nil {
			resp.Body.Close()
			queuedResp <- resp
		} else {
			close(queuedResp)
		}
	}()
	<-queuedc

	// Request 3 finds the queue full: immediate capacity rejection whose
	// hint covers the backlog (1 queued + itself at one budget per slot).
	resp, err := post()
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full request: status %d, want 429", resp.StatusCode)
	}
	capacityHint := retryAfterSeconds(t, resp)

	timeoutResp, ok := <-queuedResp
	if !ok {
		t.Fatal("queued request failed to complete")
	}
	if timeoutResp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-timeout request: status %d, want 429", timeoutResp.StatusCode)
	}
	timeoutHint := retryAfterSeconds(t, timeoutResp)
	close(release)
	<-firstDone

	if capacityHint <= timeoutHint {
		t.Fatalf("Retry-After must differ by cause: queue-full hint %ds <= queue-timeout hint %ds",
			capacityHint, timeoutHint)
	}
	// Concretely: 600ms budget, 1 slot, 1 queued ahead -> ceil(1.2s) = 2s
	// for the full queue, versus an empty backlog floor of 1s after a
	// timed-out wait.
	if capacityHint != 2 || timeoutHint != 1 {
		t.Fatalf("hints (capacity=%d, timeout=%d), want (2, 1)", capacityHint, timeoutHint)
	}
}

// TestRetryAfterClampedOnDeepQueue regression-tests the hint ceiling for
// both rejection causes: the per-slot backlog extrapolation is a worst
// case, so on a deep queue the uncapped math quoted minutes-long hints
// (perSlot * backlog grows linearly with MaxQueue) that honest clients
// would sit out long after the queue drained. The hint must never exceed
// a few class budgets no matter how deep the queue is.
var clampGate = &gate{}

func TestRetryAfterClampedOnDeepQueue(t *testing.T) {
	registerBackend(t, gatedBackend{name: "e2e-gate-clamp", g: clampGate})
	started, release := clampGate.arm()
	budget := 300 * time.Millisecond
	const depth = 20
	queuedc := make(chan struct{}, depth)
	_, ts := newTestServerWith(t, serve.Config{
		WarmModels: []string{},
		Classes: map[serve.Class]serve.ClassPolicy{
			"deep": {Budget: budget, Backends: []string{"e2e-gate-clamp"}, MaxConcurrent: 1, MaxQueue: depth},
		},
	}, func(s *serve.Server) {
		s.SetQueuedHook("deep", func() { queuedc <- struct{}{} })
	})
	body, err := json.Marshal(serve.ScheduleRequest{Model: "Xception", Class: "deep"})
	if err != nil {
		t.Fatal(err)
	}
	post := func() (*http.Response, error) {
		return http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
	}
	// With 1 slot at 300ms per budget, 4 budgets cap the hint at
	// ceil(1.2s) = 2s; the uncapped worst case over a full queue would be
	// ceil(0.3 * 21) = 7s.
	const capSeconds = 2

	// One request holds the only slot for the whole test.
	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		if resp, err := post(); err == nil {
			resp.Body.Close()
		}
	}()
	<-started

	// Fill the queue; every one of these will come back as a
	// queue-timeout rejection after its budget expires. Each queued
	// waiter signals the hook, so depth signals mean the queue is full.
	queued := make(chan *http.Response, depth)
	for i := 0; i < depth; i++ {
		go func() {
			if resp, err := post(); err == nil {
				resp.Body.Close()
				queued <- resp
			} else {
				queued <- nil
			}
		}()
	}
	for i := 0; i < depth; i++ {
		<-queuedc
	}

	// Queue-full: the backlog is at its deepest, so this is where the old
	// math quoted 7s.
	resp, err := post()
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full request: status %d, want 429", resp.StatusCode)
	}
	if hint := retryAfterSeconds(t, resp); hint != capSeconds {
		t.Fatalf("queue-full Retry-After = %ds, want the %ds cap", hint, capSeconds)
	}

	// Queue-timeout: whatever backlog each rejection still sees, no hint
	// may exceed the cap (the first few see nearly the full queue).
	for i := 0; i < depth; i++ {
		r := <-queued
		if r == nil {
			t.Fatal("queued request failed")
		}
		if r.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("queued request: status %d, want 429", r.StatusCode)
		}
		if hint := retryAfterSeconds(t, r); hint > capSeconds {
			t.Fatalf("queue-timeout Retry-After = %ds exceeds the %ds cap", hint, capSeconds)
		}
	}
	close(release)
	<-holderDone
}

func retryAfterSeconds(t *testing.T, resp *http.Response) int {
	t.Helper()
	h := resp.Header.Get("Retry-After")
	if h == "" {
		t.Fatal("429 without Retry-After")
	}
	v, err := strconv.Atoi(h)
	if err != nil || v < 1 {
		t.Fatalf("bad Retry-After %q", h)
	}
	return v
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		//lint:ignore nosleeptest deadline-bounded poll interval in the shared waitFor helper
		time.Sleep(time.Millisecond)
	}
}

// TestValidationEdgeCases is the table the issue demands: nonsensical
// stage counts, empty graphs and ambiguous inputs must all come back as
// client errors — never a 5xx and never a backend panic.
func TestValidationEdgeCases(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{WarmModels: []string{}})

	tiny := `{"name":"tiny","nodes":[{"name":"a","param_bytes":10},{"name":"b","param_bytes":10},{"name":"c","param_bytes":10}],"edges":[[0,1],[1,2]]}`
	cases := []struct {
		name string
		path string
		body any
	}{
		{"stages below 1", "/v1/schedule", serve.ScheduleRequest{Model: "ResNet50", Stages: -2}},
		{"stages beyond the cap", "/v1/schedule", serve.ScheduleRequest{Model: "ResNet50", Stages: 100000}},
		{"stages exceed node count", "/v1/schedule", `{"graph":` + tiny + `,"stages":10}`},
		{"empty graph", "/v1/schedule", `{"graph":{"name":"g","nodes":[],"edges":[]}}`},
		{"model and graph both set", "/v1/schedule", `{"model":"ResNet50","graph":` + tiny + `}`},
		{"neither model nor graph", "/v1/schedule", serve.ScheduleRequest{}},
		{"batch stages exceed node count", "/v1/batch", `{"graphs":[` + tiny + `],"stages":10}`},
		{"batch stages below 1", "/v1/batch", serve.BatchRequest{Models: []string{"ResNet50"}, Stages: -1}},
		{"batch empty", "/v1/batch", serve.BatchRequest{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postJSON(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode < 400 || resp.StatusCode > 499 {
				t.Fatalf("status %d, want 4xx (%s)", resp.StatusCode, data)
			}
			var e serve.ErrorResponse
			decodeInto(t, data, &e)
			if e.Error == "" {
				t.Fatalf("error body missing: %s", data)
			}
		})
	}

	// The boundary itself is legal: exactly as many stages as nodes.
	resp, data := postJSON(t, ts.URL+"/v1/schedule", `{"graph":`+tiny+`,"stages":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stages == node count must be accepted: status %d: %s", resp.StatusCode, data)
	}
}
