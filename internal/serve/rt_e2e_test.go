// End-to-end tests of the periodic-task (rt) mode through the HTTP
// surface: registration and schedulability rejection on /v1/periodic,
// reconciliation of the rt metric families with the /v1/stats rt block,
// and dispatcher shutdown leaving no orphaned releases.
package serve_test

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"respect/internal/serve"
)

// TestPeriodicRegistrationAndSchedulability drives the registration API
// without running the dispatcher: admission is a pure schedulability
// test, so accept/reject behavior is fully observable from POST alone.
func TestPeriodicRegistrationAndSchedulability(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		WarmModels: []string{},
		RT:         serve.RTConfig{Enabled: true},
	})

	// A comfortably schedulable stream is admitted with 201 Created.
	resp, data := postJSON(t, ts.URL+"/v1/periodic", serve.PeriodicRequest{
		Name: "cam", Model: "ResNet50", PeriodMS: 50, CostMS: 5,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register cam: status %d: %s", resp.StatusCode, data)
	}
	var out serve.PeriodicResponse
	decodeInto(t, data, &out)
	if out.Policy != "edf" {
		t.Fatalf("default policy = %q, want edf", out.Policy)
	}
	if math.Abs(out.Utilization-0.1) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.1 (5ms / 50ms)", out.Utilization)
	}
	if out.Stream.Name != "cam" || out.Stream.Utilization != out.Utilization {
		t.Fatalf("stream snapshot missing or inconsistent: %+v", out)
	}

	// Re-using a live stream name is a conflict, not a replace.
	if resp, data := postJSON(t, ts.URL+"/v1/periodic", serve.PeriodicRequest{
		Name: "cam", Model: "ResNet50", PeriodMS: 100, CostMS: 1,
	}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate name: status %d, want 409: %s", resp.StatusCode, data)
	}

	// An over-utilized candidate set is refused: 0.95 on top of the
	// admitted 0.1 exceeds the EDF bound of 1.0. The registered set is
	// untouched.
	resp, data = postJSON(t, ts.URL+"/v1/periodic", serve.PeriodicRequest{
		Name: "hog", Model: "ResNet50", PeriodMS: 10, CostMS: 9.5,
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("over-utilized set: status %d, want 409: %s", resp.StatusCode, data)
	}
	var e serve.ErrorResponse
	decodeInto(t, data, &e)
	if !strings.Contains(e.Error, "schedulable") {
		t.Fatalf("schedulability rejection should say so: %s", data)
	}

	// Plain validation failures keep their usual codes.
	if resp, data := postJSON(t, ts.URL+"/v1/periodic", serve.PeriodicRequest{
		Name: "ghost", Model: "NoSuchModel", PeriodMS: 50, CostMS: 1,
	}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: status %d, want 404: %s", resp.StatusCode, data)
	}
	if resp, data := postJSON(t, ts.URL+"/v1/periodic", serve.PeriodicRequest{
		Name: "zero", Model: "ResNet50", CostMS: 1,
	}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing period: status %d, want 400: %s", resp.StatusCode, data)
	}

	// GET lists exactly the admitted stream; the rejected ones never
	// entered the set.
	listResp, listData := httpGet(t, ts.URL+"/v1/periodic")
	if listResp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d: %s", listResp.StatusCode, listData)
	}
	var stats serve.Stats
	var rtStats struct {
		Streams []struct {
			Name string `json:"name"`
		} `json:"streams"`
	}
	decodeInto(t, listData, &rtStats)
	if len(rtStats.Streams) != 1 || rtStats.Streams[0].Name != "cam" {
		t.Fatalf("list = %s, want exactly [cam]", listData)
	}

	// DELETE: unknown name is 404, the admitted one removes cleanly and
	// frees its name and utilization for re-registration.
	if resp, data := httpDelete(t, ts.URL+"/v1/periodic/hog"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delete unknown: status %d, want 404: %s", resp.StatusCode, data)
	}
	if resp, data := httpDelete(t, ts.URL+"/v1/periodic/cam"); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete cam: status %d: %s", resp.StatusCode, data)
	}
	if resp, data := postJSON(t, ts.URL+"/v1/periodic", serve.PeriodicRequest{
		Name: "cam", Model: "ResNet50", PeriodMS: 50, CostMS: 5,
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("re-register after delete: status %d: %s", resp.StatusCode, data)
	}

	// The /v1/stats rt block mirrors the dispatcher snapshot.
	statsResp, statsData := httpGet(t, ts.URL+"/v1/stats")
	if statsResp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", statsResp.StatusCode)
	}
	decodeInto(t, statsData, &stats)
	if stats.RT == nil || len(stats.RT.Streams) != 1 || stats.RT.Streams[0].Name != "cam" {
		t.Fatalf("/v1/stats rt block missing the admitted stream: %s", statsData)
	}
}

// TestPeriodicNameMustBeAddressable: a stream is removed by its name as a
// URL path segment, so a name that cannot be one is refused at
// registration; it used to register and then outlive every DELETE.
func TestPeriodicNameMustBeAddressable(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		WarmModels: []string{},
		RT:         serve.RTConfig{Enabled: true},
	})
	register := func(name string) (*http.Response, []byte) {
		return postJSON(t, ts.URL+"/v1/periodic", serve.PeriodicRequest{
			Name: name, Model: "ResNet50", PeriodMS: 50, CostMS: 5,
		})
	}
	if resp, data := register("a/b"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("register a/b: status %d, want 400: %s", resp.StatusCode, data)
	}
	if resp, data := register("a"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register a: status %d, want 201: %s", resp.StatusCode, data)
	}
	if resp, data := httpDelete(t, ts.URL+"/v1/periodic/a"); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete a: status %d, want 200: %s", resp.StatusCode, data)
	}
	_, listData := httpGet(t, ts.URL+"/v1/periodic")
	var list struct {
		Streams []json.RawMessage `json:"streams"`
	}
	decodeInto(t, listData, &list)
	if len(list.Streams) != 0 {
		t.Fatalf("list after the delete = %s, want no streams", listData)
	}
}

// TestPeriodicEndpointsAbsentWhenDisabled keeps the default serving
// surface unchanged: without Config.RT.Enabled the periodic endpoints do
// not exist and /v1/stats carries no rt block.
func TestPeriodicEndpointsAbsentWhenDisabled(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{WarmModels: []string{}})
	if resp, _ := postJSON(t, ts.URL+"/v1/periodic", serve.PeriodicRequest{
		Name: "cam", Model: "ResNet50", PeriodMS: 50,
	}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("rt disabled: status %d, want 404", resp.StatusCode)
	}
	_, statsData := httpGet(t, ts.URL+"/v1/stats")
	var stats serve.Stats
	decodeInto(t, statsData, &stats)
	if stats.RT != nil {
		t.Fatalf("rt block present despite disabled mode: %s", statsData)
	}
}

// TestPeriodicMissMetricsReconcileAndShutdown runs the full dispatcher
// lifecycle under Server.Run: a stream whose backend deterministically
// overruns its deadline accumulates misses, the rt metric families must
// agree exactly with the /v1/stats rt block (both are function-backed on
// the same stream atomics), and cancelling Run stops the dispatcher with
// no orphaned releases afterwards.
func TestPeriodicMissMetricsReconcileAndShutdown(t *testing.T) {
	// A backend that sleeps 30ms guarantees every job finishes well past
	// the 10ms stream deadline below — misses are deterministic, not a
	// timing accident.
	registerBackend(t, sleepIgnoringCtx{name: "rt-e2e-sleep", d: 30 * time.Millisecond})
	srv, err := serve.New(serve.Config{
		WarmModels: []string{},
		Classes: map[serve.Class]serve.ClassPolicy{
			"rtc": {Budget: 500 * time.Millisecond, Backends: []string{"rt-e2e-sleep"},
				MaxConcurrent: 2, MaxQueue: 4},
		},
		RT: serve.RTConfig{Enabled: true, Policy: "rm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Run owns the dispatcher lifecycle; the httptest server above shares
	// the same handler so the API stays reachable after Run exits and the
	// counters have frozen.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- srv.Run(ctx, ln) }()

	resp, data := postJSON(t, ts.URL+"/v1/periodic", serve.PeriodicRequest{
		Name: "cam", Model: "ResNet50", Class: "rtc",
		PeriodMS: 60, DeadlineMS: 10, CostMS: 1,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d: %s", resp.StatusCode, data)
	}

	// Let the stream run a few periods: at least two releases must have
	// completed late.
	waitFor(t, func() bool {
		st := srv.Stats()
		return st.RT != nil && st.RT.Misses >= 2 && st.RT.Completions >= 2
	})

	// Stop the service; once Run returns every counter is frozen.
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("Run: %v", err)
	}

	_, statsData := httpGet(t, ts.URL+"/v1/stats")
	var stats serve.Stats
	decodeInto(t, statsData, &stats)
	if stats.RT == nil || len(stats.RT.Streams) != 1 {
		t.Fatalf("rt block missing after shutdown: %s", statsData)
	}
	cam, rtc := stats.RT.Streams[0], stats.Classes["rtc"]
	series, page := scrapeMetrics(t, ts.URL)

	checks := []struct {
		series string
		want   float64
	}{
		{`respect_rt_releases_total{stream="cam"}`, float64(cam.Releases)},
		{`respect_rt_deadline_misses_total{stream="cam",policy="rm"}`, float64(cam.Misses)},
		{`respect_rt_queued_jobs`, float64(stats.RT.Queued)},
		// Every completion and drop observes the tardiness histogram.
		{`respect_rt_tardiness_seconds_count`, float64(cam.Completions + cam.Drops)},
		// A periodic job's admission is observed like any other: one
		// queue-wait observation per admission decision.
		{`respect_admission_wait_seconds_count{class="rtc"}`,
			float64(rtc.Admitted + rtc.RejectedCapacity + rtc.RejectedQueueTimeout)},
	}
	if rtc.Admitted < 2 {
		t.Errorf("class stats %+v, want at least the two completed jobs admitted", rtc)
	}
	for _, c := range checks {
		if got := metricValue(t, series, page, c.series); got != c.want {
			t.Errorf("%s = %v, want %v (stats: %+v)", c.series, got, c.want, cam)
		}
	}
	if got := metricValue(t, series, page, `respect_rt_stream_utilization{stream="cam"}`); math.Abs(got-cam.Utilization) > 1e-9 {
		t.Errorf("utilization gauge %v diverges from stats %v", got, cam.Utilization)
	}
	if cam.Misses < 2 || cam.Misses > cam.Releases {
		t.Errorf("implausible miss accounting: %+v", cam)
	}
	if stats.RT.Queued != 0 {
		t.Errorf("queue not drained by shutdown: %+v", stats.RT)
	}

	// No orphaned releases: Run has returned, which waits out every
	// dispatcher goroutine, so the release counter is provably frozen —
	// in stats and in the exposition.
	after := srv.Stats()
	if after.RT.Releases != stats.RT.Releases {
		t.Fatalf("releases moved after shutdown: %d -> %d", stats.RT.Releases, after.RT.Releases)
	}
	series2, page2 := scrapeMetrics(t, ts.URL)
	if got := metricValue(t, series2, page2, `respect_rt_releases_total{stream="cam"}`); got != float64(stats.RT.Releases) {
		t.Fatalf("release series moved after shutdown: %v -> %v", stats.RT.Releases, got)
	}
}

// httpGet GETs url and returns the response plus its body.
func httpGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

// httpDelete issues DELETE url and returns the response plus its body.
func httpDelete(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
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
