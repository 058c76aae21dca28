package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"respect/internal/embed"
	"respect/internal/ptrnet"
)

// syncBuffer is a goroutine-safe io.Writer the server under test logs to.
type syncBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRE = regexp.MustCompile(`listening on (http://[^\s]+)`)

// TestRunStartupShutdown drives the whole binary in-process: boot on an
// ephemeral port with warm-up disabled, serve real requests, then shut
// down cleanly via context cancellation (the signal path of main).
func TestRunStartupShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-warm", "none"}, &out)
	}()

	var base string
	deadline := time.Now().Add(15 * time.Second)
	for base == "" {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run exited before listening: %v\noutput: %s", err, out.String())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("no listening line within 15s; output: %s", out.String())
		}
	}

	// The line before it says which ptrnet kernels this replica runs.
	if !regexp.MustCompile(`(?m)^ptrnet kernels: (avx2|portable)\nlistening on `).MatchString(out.String()) {
		t.Fatalf("no kernel line before the listening line; output: %s", out.String())
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	resp, err = http.Post(base+"/v1/schedule", "application/json",
		strings.NewReader(`{"model":"MobileNet","stages":4}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %d: %s", resp.StatusCode, body)
	}
	var sched struct {
		Backend string `json:"backend"`
		Stage   []int  `json:"stage"`
	}
	if err := json.Unmarshal(body, &sched); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	if sched.Backend == "" || len(sched.Stage) == 0 {
		t.Fatalf("empty schedule response: %s", body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("run did not shut down; output: %s", out.String())
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Fatalf("no shutdown line in output: %s", out.String())
	}
}

// pollUntil re-checks cond every few milliseconds until it returns true
// or the timeout elapses. Every wait in this file funnels through here,
// so the one deliberately bounded sleep lives in one place.
func pollUntil(t *testing.T, timeout time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		//lint:ignore nosleeptest deadline-bounded poll interval shared by every wait in this file
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

// waitForOutput polls out until re matches, returning the first capture
// group (e.g. a listen address) or "" on timeout.
func waitForOutput(t *testing.T, out *syncBuffer, re *regexp.Regexp) string {
	t.Helper()
	var got string
	pollUntil(t, 15*time.Second, func() bool {
		if m := re.FindStringSubmatch(out.String()); m != nil {
			got = m[1]
		}
		return got != ""
	})
	return got
}

// startServe boots run() with the given extra flags on an ephemeral port
// and returns the base URL plus the shutdown plumbing.
func startServe(t *testing.T, extra ...string) (base string, out *syncBuffer, cancel context.CancelFunc, done chan error) {
	t.Helper()
	ctx, cancelCtx := context.WithCancel(context.Background())
	out = &syncBuffer{}
	done = make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-warm", "none"}, extra...)
	go func() { done <- run(ctx, args, out) }()
	base = waitForOutput(t, out, listenRE)
	if base == "" {
		cancelCtx()
		t.Fatalf("no listening line; output: %s", out.String())
	}
	return base, out, cancelCtx, done
}

// TestRunMetricsFlags covers the observability flags: custom histogram
// buckets show up on the exposition page, and -metrics=false unmounts the
// endpoint entirely.
func TestRunMetricsFlags(t *testing.T) {
	base, _, cancel, done := startServe(t, "-metrics-buckets", "0.002,0.2")
	defer func() { cancel(); <-done }()

	resp, err := http.Post(base+"/v1/schedule", "application/json",
		strings.NewReader(`{"model":"MobileNet","stages":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %d", resp.StatusCode)
	}
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", mresp.StatusCode)
	}
	for _, want := range []string{
		`le="0.002"`,
		`respect_admission_requests_total{class="interactive",result="admitted"} 1`,
	} {
		if !strings.Contains(string(page), want) {
			t.Fatalf("exposition missing %q:\n%s", want, page)
		}
	}
	if strings.Contains(string(page), `le="0.005"`) {
		t.Fatalf("default buckets leaked through -metrics-buckets:\n%s", page)
	}

	// Bad bucket lists are flag errors, not panics.
	var out syncBuffer
	if err := run(context.Background(), []string{"-metrics-buckets", "abc"}, &out); err == nil {
		t.Fatal("want bucket parse error")
	}
	if err := run(context.Background(), []string{"-metrics-buckets", "-1"}, &out); err == nil {
		t.Fatal("want negative bucket error")
	}
	if err := run(context.Background(), []string{"-metrics-buckets", "NaN"}, &out); err == nil {
		t.Fatal("want NaN bucket error")
	}
}

func TestRunMetricsDisabled(t *testing.T) {
	base, _, cancel, done := startServe(t, "-metrics=false")
	defer func() { cancel(); <-done }()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("-metrics=false /metrics: %d, want 404", resp.StatusCode)
	}
}

// TestRunSpeculateFlags boots with speculation on: the speculation metric
// families are exposed, /v1/stats carries the speculation block, and bad
// speculation flag values are config errors, not panics.
func TestRunSpeculateFlags(t *testing.T) {
	base, _, cancel, done := startServe(t, "-speculate", "-speculate-watermark", "0.7", "-speculate-budget", "2")
	defer func() { cancel(); <-done }()

	resp, err := http.Post(base+"/v1/schedule", "application/json",
		strings.NewReader(`{"model":"MobileNet","stages":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %d", resp.StatusCode)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"respect_speculative_warms_total",
		"respect_speculative_hits_total",
	} {
		if !strings.Contains(string(page), want) {
			t.Fatalf("exposition missing %q with -speculate:\n%s", want, page)
		}
	}

	sresp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Speculation *struct {
			TrackedKeys int `json:"tracked_keys"`
		} `json:"speculation"`
	}
	err = json.NewDecoder(sresp.Body).Decode(&st)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Speculation == nil || st.Speculation.TrackedKeys < 1 {
		t.Fatalf("stats speculation block missing or empty: %+v", st.Speculation)
	}

	var out syncBuffer
	if err := run(context.Background(), []string{"-speculate", "-speculate-watermark", "1.5"}, &out); err == nil {
		t.Fatal("want watermark range error")
	}
	if err := run(context.Background(), []string{"-speculate", "-speculate-budget", "-1"}, &out); err == nil {
		t.Fatal("want negative budget error")
	}
}

// TestRunRTFlags boots with the periodic-task mode on: /v1/periodic
// registers a stream under the flagged policy, the rt metric families
// are exposed, /v1/stats carries the rt block, and bad rt flag values
// are config errors, not panics.
func TestRunRTFlags(t *testing.T) {
	base, _, cancel, done := startServe(t, "-rt", "-rt-policy", "rm", "-rt-util-bound", "0.8")
	defer func() { cancel(); <-done }()

	resp, err := http.Post(base+"/v1/periodic", "application/json",
		strings.NewReader(`{"name":"cam","model":"MobileNet","period_ms":200,"cost_ms":5}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("periodic register: %d: %s", resp.StatusCode, body)
	}
	var reg struct {
		Policy    string  `json:"policy"`
		UtilBound float64 `json:"util_bound"`
	}
	if err := json.Unmarshal(body, &reg); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	if reg.Policy != "rm" || reg.UtilBound != 0.8 {
		t.Fatalf("flags not reflected in registration: %s", body)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`respect_rt_releases_total{stream="cam"}`,
		`respect_rt_deadline_misses_total{stream="cam",policy="rm"}`,
		"respect_rt_queued_jobs",
	} {
		if !strings.Contains(string(page), want) {
			t.Fatalf("exposition missing %q with -rt:\n%s", want, page)
		}
	}

	sresp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		RT *struct {
			Policy  string `json:"policy"`
			Streams []struct {
				Name string `json:"name"`
			} `json:"streams"`
		} `json:"rt"`
	}
	err = json.NewDecoder(sresp.Body).Decode(&st)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.RT == nil || st.RT.Policy != "rm" || len(st.RT.Streams) != 1 {
		t.Fatalf("stats rt block missing or wrong: %+v", st.RT)
	}

	var out syncBuffer
	if err := run(context.Background(), []string{"-rt", "-rt-policy", "lifo"}, &out); err == nil {
		t.Fatal("want unknown policy error")
	}
	if err := run(context.Background(), []string{"-rt", "-rt-util-bound", "-1"}, &out); err == nil {
		t.Fatal("want negative bound error")
	}
}

// TestRunClusterFlags boots a replica in fleet mode with one unreachable
// peer: the heartbeat endpoint and metric families come up, /v1/stats
// carries the cluster block, and bad fleet flags are config errors.
func TestRunClusterFlags(t *testing.T) {
	// Port 9 (discard) refuses connections immediately, so the dead peer
	// never slows the test down.
	base, _, cancel, done := startServe(t,
		"-advertise", "http://127.0.0.1:18080",
		"-peers", "http://127.0.0.1:18080,http://127.0.0.1:9")
	defer func() { cancel(); <-done }()

	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Cluster *struct {
			Self    string `json:"self"`
			Members []struct {
				URL   string `json:"url"`
				Self  bool   `json:"self"`
				State string `json:"state"`
			} `json:"members"`
		} `json:"cluster"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil || st.Cluster.Self != "http://127.0.0.1:18080" || len(st.Cluster.Members) != 2 {
		t.Fatalf("stats cluster block: %+v, want the advertise URL with 2 members", st.Cluster)
	}

	hresp, err := http.Get(base + "/v1/cluster/heartbeat")
	if err != nil {
		t.Fatal(err)
	}
	var hb struct {
		From string `json:"from"`
	}
	err = json.NewDecoder(hresp.Body).Decode(&hb)
	hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hb.From != "http://127.0.0.1:18080" {
		t.Fatalf("heartbeat from %q, want the advertise URL", hb.From)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"respect_cluster_forwards_total",
		`respect_cluster_peer_state{peer="http://127.0.0.1:9"}`,
		"respect_cluster_rebalances_total",
	} {
		if !strings.Contains(string(page), want) {
			t.Fatalf("exposition missing %q in fleet mode:\n%s", want, page)
		}
	}

	var out syncBuffer
	if err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-warm", "none",
		"-peers", "http://127.0.0.1:9"}, &out); err == nil {
		t.Fatal("want missing-advertise error")
	}
	if err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-warm", "none",
		"-advertise", "http://127.0.0.1:18080"}, &out); err == nil {
		t.Fatal("want advertise-without-peers error")
	}
	if err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-warm", "none",
		"-advertise", "http://127.0.0.1:18080", "-peers", "not-a-url"}, &out); err == nil {
		t.Fatal("want bad-peer-URL error")
	}
}

// TestRunWarmSetAndFlagErrors covers the warm-set plumbing and flag
// validation without binding a real port twice.
func TestRunWarmSetAndFlagErrors(t *testing.T) {
	// Unknown warm model fails fast, before listening.
	var out syncBuffer
	err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-warm", "NoSuchNet"}, &out)
	if err == nil || !strings.Contains(err.Error(), "NoSuchNet") {
		t.Fatalf("want unknown-model error, got %v", err)
	}
	// Bad flag is reported by the flag set, not a panic.
	if err := run(context.Background(), []string{"-definitely-not-a-flag"}, &out); err == nil {
		t.Fatal("want flag error")
	}
	// Unknown backend override fails at config validation.
	err = run(context.Background(), []string{"-addr", "127.0.0.1:0", "-warm", "none", "-interactive-backends", "nope"}, &out)
	if err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("want unknown-backend error, got %v", err)
	}
}

// TestRunRefusesAgentOfAnotherWidth: an agent file whose input width is
// not the embedding's cannot decode anything (the decoder panics on the
// first graph), so the binary must refuse it at load, naming both widths,
// and not start listening.
func TestRunRefusesAgentOfAnotherWidth(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wide.gob")
	if err := ptrnet.New(ptrnet.Config{InputDim: 9, Hidden: 8, Seed: 1}).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Were the file accepted, run would serve until the context ends.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var out syncBuffer
	err := run(ctx, []string{"-addr", "127.0.0.1:0", "-warm", "none", "-agent", path}, &out)
	if err == nil || !strings.Contains(err.Error(), "width 9") || !strings.Contains(err.Error(), "produces 7") {
		t.Fatalf("want an error naming widths 9 and 7, got %v", err)
	}
	if strings.Contains(out.String(), "listening on") {
		t.Fatalf("the server started listening:\n%s", out.String())
	}
}

// TestRunAgentBackends: with an agent loaded the replica lists the
// built-ins plus rl and rl-sampled, and a request pinned to a name that
// is not registered is a 400 naming the backends that are.
func TestRunAgentBackends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "agent.gob")
	if err := ptrnet.New(ptrnet.Config{InputDim: embed.Default().Dim(), Hidden: 8, Seed: 1}).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	base, _, cancel, done := startServe(t, "-agent", path)
	defer func() { cancel(); <-done }()

	resp, err := http.Get(base + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	var page struct {
		Backends []string `json:"backends"`
	}
	err = json.NewDecoder(resp.Body).Decode(&page)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Other tests of this process may have bound online backends too.
	for _, want := range []string{"compiler", "exact", "exact-ilp-grade", "heur", "rl", "rl-sampled"} {
		if !slices.Contains(page.Backends, want) {
			t.Fatalf("backends %v lack %q", page.Backends, want)
		}
	}
	deleted := []string{"rl-beam", "dp", "compiler-full", "ilp", "hu", "list", "force", "anneal"}
	for _, gone := range deleted {
		if slices.Contains(page.Backends, gone) {
			t.Fatalf("backends %v list %q", page.Backends, gone)
		}
	}

	for _, name := range deleted {
		resp, err := http.Post(base+"/v1/schedule", "application/json",
			strings.NewReader(`{"model":"MobileNet","stages":4,"backends":["`+name+`"]}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), name) || !strings.Contains(string(body), " heur ") || !strings.Contains(string(body), " rl-sampled") {
			t.Fatalf("pinned to %s: %d %s, want a 400 naming it and the registered backends", name, resp.StatusCode, body)
		}
	}
}

// TestRunWarmUpCachesZooSubset boots with a two-model warm set and checks
// the first request is a cache hit once stats report the warm-up done.
func TestRunWarmUpCachesZooSubset(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-warm", "MobileNet,VGG16"}, &out)
	}()
	base := waitForOutput(t, &out, listenRE)
	if base == "" {
		t.Fatalf("no listening line; output: %s", out.String())
	}

	// Wait for the warm-up to land (it runs concurrently with serving).
	warmed := pollUntil(t, 15*time.Second, func() bool {
		resp, err := http.Get(base + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			WarmedSchedules int64 `json:"warmed_schedules"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return st.WarmedSchedules >= 2
	})
	if !warmed {
		t.Fatalf("warm-up never completed; output: %s", out.String())
	}

	resp, err := http.Post(base+"/v1/schedule", "application/json",
		strings.NewReader(`{"model":"MobileNet"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var schedResp struct {
		CacheHit bool `json:"cache_hit"`
	}
	if err := json.Unmarshal(body, &schedResp); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	if !schedResp.CacheHit {
		t.Fatalf("warmed model missed the cache: %s", body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not shut down")
	}
}

var pprofRE = regexp.MustCompile(`pprof on (http://[^\s]+)/debug/pprof/`)

// TestRunPprofFlag mounts the profiler on a second ephemeral port and
// checks the index and a heap profile respond there, while the serving
// address stays clean of /debug/pprof.
func TestRunPprofFlag(t *testing.T) {
	base, out, cancel, done := startServe(t, "-pprof", "127.0.0.1:0")
	defer func() { cancel(); <-done }()

	pbase := waitForOutput(t, out, pprofRE)
	if pbase == "" {
		t.Fatalf("no pprof line; output: %s", out.String())
	}

	resp, err := http.Get(pbase + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(page), "heap") {
		t.Fatalf("pprof index: %d: %s", resp.StatusCode, page)
	}
	resp, err = http.Get(pbase + "/debug/pprof/heap?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heap profile: %d", resp.StatusCode)
	}

	// The serving mux must not expose the profiler.
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("serving address exposes pprof: %d", resp.StatusCode)
	}

	// A bad profiler address is a startup error, not a panic.
	var buf syncBuffer
	if err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-warm", "none", "-pprof", "256.0.0.1:99999"}, &buf); err == nil {
		t.Fatal("want pprof listen error")
	}
}

// TestRunOnlineFlag boots the binary with the learning loop enabled and
// checks the wiring end to end: the per-class online backends are
// registered and raced, solved requests land in the replay buffer, and
// the online stats block and metric families are exposed.
func TestRunOnlineFlag(t *testing.T) {
	base, _, cancel, done := startServe(t, "-online", "-online-interval", "1h", "-online-margin", "0.05", "-online-buffer", "128")
	defer func() { cancel(); <-done }()

	resp, err := http.Post(base+"/v1/schedule", "application/json",
		strings.NewReader(`{"model":"MobileNet","stages":4,"class":"interactive"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %d", resp.StatusCode)
	}

	bresp, err := http.Get(base + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	bpage, _ := io.ReadAll(bresp.Body)
	bresp.Body.Close()
	if !strings.Contains(string(bpage), `"rl-online-interactive"`) {
		t.Fatalf("backends listing lacks the online backend:\n%s", bpage)
	}

	sresp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Online *struct {
			Classes map[string]struct {
				Backend string `json:"backend"`
				Samples uint64 `json:"samples"`
			} `json:"classes"`
		} `json:"online"`
	}
	sbody, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if err := json.Unmarshal(sbody, &st); err != nil {
		t.Fatalf("decode %s: %v", sbody, err)
	}
	if st.Online == nil {
		t.Fatalf("stats online block missing:\n%s", sbody)
	}
	cs, ok := st.Online.Classes["interactive"]
	if !ok || cs.Samples != 1 || cs.Backend != "rl-online-interactive" {
		t.Fatalf("online interactive class state: %+v (body %s)", cs, sbody)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`respect_online_samples_total{class="interactive"} 1`,
		"respect_online_train_rounds_total 0",
		`respect_online_promotions_total{class="interactive",result="promoted"} 0`,
	} {
		if !strings.Contains(string(page), want) {
			t.Fatalf("exposition missing %q:\n%s", want, page)
		}
	}
}

// TestDocsFlagTable holds the flags table of docs/operations.md to the
// FlagSet run builds, both ways: every flag has a row and every row is a
// flag. It is the flags half of the root package's TestDocsOptionTables.
func TestDocsFlagTable(t *testing.T) {
	var usage strings.Builder
	if err := run(context.Background(), []string{"-h"}, &usage); err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  (-[a-z-]+)`).FindAllStringSubmatch(usage.String(), -1) {
		flags[m[1]] = true
	}
	if len(flags) == 0 {
		t.Fatalf("no flags in the -h output:\n%s", usage.String())
	}

	raw, err := os.ReadFile("../../docs/operations.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "## respect-serve flags")
	if !ok {
		t.Fatal("docs/operations.md has no respect-serve flags section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `(-[a-z-]+)` \\|").FindAllStringSubmatch(section, -1) {
		rows[m[1]] = true
	}
	for f := range flags {
		if !rows[f] {
			t.Errorf("docs/operations.md: the flags table has no %s row", f)
		}
	}
	for r := range rows {
		if !flags[r] {
			t.Errorf("docs/operations.md: the flags table documents %s, which is not a flag", r)
		}
	}
}
