package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. The spans of a request
// share its Request number; Parent is the ID of the span that caused this
// one (0 for a root). Times are milliseconds since the traced window, or
// the probe binary, started; a request span's start is wall-clock, its
// length is on the reference clock (calib.go).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Request int     `json:"request"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	// Count is how many calls a probe span covers (absent for 1).
	Count int `json:"count,omitempty"`
}

// traceFile is what benchmark/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Requests and SpannedRequests say how many requests the traced
	// window answered and how many of them have their spans listed.
	Requests        int `json:"requests"`
	SpannedRequests int `json:"spanned_requests"`
	// SelfMS is each span name's total self time over the listed spans:
	// a span's duration minus the part its children cover.
	SelfMS map[string]float64 `json:"self_ms"`
	Spans  []span             `json:"spans"`
}

// maxSpannedRequests bounds the trace file: the per-layer metrics use
// every traced request, the file lists the spans of the first ones.
const maxSpannedRequests = 2000

// requestSpans lays one traced request out as spans. The client span is
// measured by the load generator; the server reports durations, not
// clock times, so its total is centred in the client span (the two
// halves of the remainder are the request and the response on the wire,
// with the response encode) and its parts are laid end to end in the
// order the handler runs them. A forwarded request's server spans are
// the owner's: the relay's own time is in the client remainder.
func requestSpans(nextID *int, request int, s sample) []span {
	id := func() int { *nextID++; return *nextID }
	startMS := float64(s.start) / float64(time.Millisecond)
	client := span{ID: id(), Request: request, Name: "client.request", StartMS: startMS, EndMS: startMS + s.ms}
	out := []span{client}
	t := s.trace
	if t == nil {
		return out
	}
	at := startMS + (s.ms-t.TotalMS)/2
	total := span{ID: id(), Parent: client.ID, Request: request, Name: "serve.total", StartMS: at, EndMS: at + t.TotalMS}
	out = append(out, total)
	pre := t.TotalMS - t.QueueWaitMS - t.SolveMS
	for _, part := range []struct {
		name string
		ms   float64
	}{{"serve.pre_solve", pre}, {"serve.queue_wait", t.QueueWaitMS}, {"solver.solve", t.SolveMS}} {
		sp := span{ID: id(), Parent: total.ID, Request: request, Name: part.name, StartMS: at, EndMS: at + part.ms}
		out = append(out, sp)
		if part.name == "solver.solve" {
			for _, b := range t.Backends {
				out = append(out, span{ID: id(), Parent: sp.ID, Request: request, Name: "solver.backend." + b.Backend,
					StartMS: at + b.StartMS, EndMS: at + b.FinishMS})
			}
		}
		at += part.ms
	}
	return out
}

// selfTimes sums, per span name, duration minus the union of the
// children's intervals (raced backends overlap, so their union, not
// their sum, is what the parent did not spend itself).
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartMS < kids[j].StartMS })
		covered, edge := 0.0, s.StartMS
		for _, k := range kids {
			lo, hi := max(k.StartMS, edge), min(k.EndMS, s.EndMS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += (s.EndMS - s.StartMS) - covered
	}
	return self
}

func writeTraceFile(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tf.SelfMS = selfTimes(tf.Spans)
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}

// serveMetrics derives the serve.* and solver.* per-layer metrics from a
// traced window. The three parts of serve.total (pre_solve, queue_wait,
// solve) are averaged over the requests between the 45th and 55th
// percentile of total_ms, the typical request, so they sum to
// serve.total_ms_p50 instead of being three unrelated medians.
func serveMetrics(w *window, class string) map[string]float64 {
	m := map[string]float64{}
	var traced []sample
	for _, s := range w.samples {
		if s.trace != nil {
			traced = append(traced, s)
		}
	}
	sort.Slice(traced, func(i, j int) bool { return traced[i].trace.TotalMS < traced[j].trace.TotalMS })
	var wire, queue, overhead []float64
	byKind := map[requestKind][]float64{}
	elapsed := map[string][]float64{}
	wins := map[string]int{}
	raced := 0
	for _, s := range w.samples {
		byKind[s.kind] = append(byKind[s.kind], s.ms)
	}
	for _, s := range traced {
		t := s.trace
		wire = append(wire, s.ms-t.TotalMS)
		queue = append(queue, t.QueueWaitMS)
		if len(t.Backends) == 0 {
			continue
		}
		raced++
		slowest := 0.0
		for _, b := range t.Backends {
			elapsed[b.Backend] = append(elapsed[b.Backend], b.FinishMS-b.StartMS)
			slowest = max(slowest, b.FinishMS)
			if b.Outcome == "winner" {
				wins[b.Backend]++
			}
		}
		overhead = append(overhead, t.SolveMS-slowest)
	}
	if n := len(traced); n > 0 {
		lo, hi := n*45/100, n*55/100+1
		band := traced[lo:min(hi, n)]
		var total, q, solve float64
		for _, s := range band {
			total += s.trace.TotalMS
			q += s.trace.QueueWaitMS
			solve += s.trace.SolveMS
		}
		k := float64(len(band))
		m["serve.total_ms_p50"] = total / k
		m["serve.queue_wait_ms_p50"] = q / k
		m["serve.solve_ms_p50"] = solve / k
		m["serve.pre_solve_ms_p50"] = (total - q - solve) / k
	}
	m["serve.queue_wait_ms_p95"] = percentile(queue, 95)
	m["serve.wire_ms_p50"] = median(wire)
	m["serve.byname_ms_p50"] = median(byKind[byName])
	m["serve.inline_ms_p50"] = median(byKind[inline])
	d := w.classDelta(class)
	m["serve.rejected_share"] = ratio(float64(d.RejectedCapacity+d.RejectedQueueTimeout), float64(w.sent))
	m["solver.cache_hit_share"] = ratio(float64(d.CacheHits), float64(d.CacheHits+d.CacheMisses))
	m["solver.cache_evictions_per_kreq"] = ratio(float64(d.CacheEvictions)*1000, float64(len(w.samples)))
	m["solver.race_overhead_ms_p50"] = median(overhead)
	m["solver.truncated_share"] = ratio(float64(w.truncated), float64(len(w.samples)))
	for _, b := range solverBackends {
		m["solver.backend."+b+".elapsed_ms_p50"] = median(elapsed[b])
		m["solver.backend."+b+".win_share"] = ratio(float64(wins[b]), float64(raced))
	}
	return m
}

// tapsArgs turn on every optional tap of the serving path: speculation's
// popularity tracking, the online learner's replay buffer (with training
// rounds pushed out of the window) and the periodic dispatcher.
var tapsArgs = []string{"-speculate", "-online", "-online-interval", "1h", "-rt"}

// periodicStreams are registered on the taps-on server so the periodic
// dispatcher has releases to make while the closed loop runs. Their cost
// estimate is pinned: the default, a quantile of the latency histogram,
// depends on what a fresh server happened to observe and can refuse the
// stream.
var periodicStreams = []struct {
	model    string
	periodMS int
}{{"MobileNet", 50}, {"VGG16", 100}, {"ResNet50", 100}, {"Xception", 200}}

// runTraced runs the traced variant of one workload and returns the
// per-layer metrics: an untraced reference window and a traced window on
// the same server (their median difference is the tracing overhead), the
// workload-specific extras, then the in-process probes.
func (e *env) runTraced(w *workload) (*result, error) {
	begin := time.Now()
	ref, err := w.pool(e.seed, w.opts(false))
	if err != nil {
		return nil, err
	}
	pr, err := e.prepare(w, true)
	if err != nil {
		return nil, err
	}
	defer pr.fleet.stop()
	// Both pools walk the same keys, so the untraced window carries the
	// traced pool's routing and cursor and hands the cursor back.
	for i := range ref.cycle {
		ref.cycle[i].target = pr.pool.cycle[i].target
	}
	ref.cursor.Store(pr.pool.cursor.Load())
	refWin, err := pr.fleet.measure(ref, max(e.seconds/4, time.Second))
	if err != nil {
		return nil, err
	}
	pr.pool.cursor.Store(ref.cursor.Load())
	win, err := pr.fleet.measure(pr.pool, max(e.seconds/2, time.Second))
	if err != nil {
		return nil, err
	}
	res := &result{workload: w.name, attempted: win.sent, failed: win.failed()}
	if win.failed() > 0 {
		logf("%s: %d of %d traced requests failed:%s", w.name, win.failed(), win.sent, win.failureSummary())
	}
	if len(win.samples) == 0 || len(refWin.samples) == 0 {
		return res, fmt.Errorf("%s: no request succeeded in the traced run", w.name)
	}
	if err := w.gate(win); err != nil {
		return res, fmt.Errorf("%s: validity gate failed: %w", w.name, err)
	}
	pr.fleet.stop()

	m := serveMetrics(win, w.class)
	ok := float64(len(win.samples))
	refP50, p50 := median(refWin.latencies()), median(win.latencies())
	m["trace.overhead_pct"] = (p50 - refP50) / refP50 * 100
	m["loadgen.cpu_ms_per_req"] = win.loadgenCPU * 1000 / ok
	m["loadgen.requests"] = float64(win.sent)
	m["machine.slowdown_p50"] = win.slow.whole
	m["machine.slowdown_max"] = win.slow.max()

	for _, name := range []string{"serve.taps_on_cpu_ms_per_req", "serve.taps_on_latency_p50_ms", "rt.releases_per_s", "rt.miss_share",
		"cluster.forwarded_share", "cluster.hop_ms_p50", "cluster.owner_total_ms_p50", "cluster.fallback_local"} {
		m[name] = 0
	}
	switch w.name {
	case "zoo_hit":
		if err := e.tapsOn(w, m); err != nil {
			return res, err
		}
	case "fleet_forward":
		if err := e.clusterMetrics(w, win, m); err != nil {
			return res, err
		}
	}

	po, err := e.runProbes()
	if err != nil {
		return res, err
	}
	for _, spec := range probeMetrics {
		v, ok := po.Metrics[spec.name]
		if !ok {
			return res, fmt.Errorf("the probes did not report %s", spec.name)
		}
		m[spec.name] = v
	}

	tf := traceFile{Workload: w.name, Seed: e.seed, Requests: len(win.samples)}
	nextID := 0
	for i, s := range win.samples {
		if i == maxSpannedRequests {
			break
		}
		tf.Spans = append(tf.Spans, requestSpans(&nextID, i+1, s)...)
		tf.SpannedRequests++
	}
	// Probe spans keep their own clock (the probe binary's start) and
	// take IDs after the request spans.
	for _, s := range po.Spans {
		s.ID += nextID
		if s.Parent != 0 {
			s.Parent += nextID
		}
		tf.Spans = append(tf.Spans, s)
	}
	path, err := writeTraceFile(filepath.Join(e.benchDir, "out"), tf)
	if err != nil {
		return res, fmt.Errorf("write trace: %w", err)
	}
	logf("%s: wrote %d spans to %s", w.name, len(tf.Spans), path)
	res.metrics = m
	res.wall = time.Since(begin)
	return res, nil
}

// tapsOn re-runs the workload untraced on a server with every optional
// tap enabled and four periodic streams registered, and records what the
// taps cost per request.
func (e *env) tapsOn(w *workload, m map[string]float64) error {
	taps := *w
	taps.args = append(append([]string(nil), w.args...), tapsArgs...)
	pr, err := e.prepare(&taps, false)
	if err != nil {
		return fmt.Errorf("taps-on server: %w", err)
	}
	defer pr.fleet.stop()
	url := pr.fleet.servers[0].url
	for _, st := range periodicStreams {
		body := fmt.Sprintf(`{"name":%q,"model":%q,"period_ms":%d,"cost_ms":2}`, "bench-"+st.model, st.model, st.periodMS)
		resp, err := pr.fleet.client.Post(url+"/v1/periodic", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			return fmt.Errorf("register periodic stream: %w", err)
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("register periodic stream %s: %s: %s", st.model, resp.Status, bytes.TrimSpace(msg))
		}
	}
	win, err := pr.fleet.measure(pr.pool, max(e.seconds/4, time.Second))
	if err != nil {
		return err
	}
	if len(win.samples) == 0 {
		return fmt.Errorf("taps-on run: no request succeeded:%s", win.failureSummary())
	}
	m["serve.taps_on_cpu_ms_per_req"] = win.serverCPU * 1000 / float64(len(win.samples))
	m["serve.taps_on_latency_p50_ms"] = median(win.latencies())
	a, b := win.after[0].RT, win.before[0].RT
	if a == nil || b == nil {
		return fmt.Errorf("taps-on run: /v1/stats has no rt block")
	}
	m["rt.releases_per_s"] = float64(a.Releases-b.Releases) / win.elapsed.Seconds() // periodic: wall clock
	m["rt.miss_share"] = ratio(float64(a.Misses-b.Misses), float64(a.Completions-b.Completions))
	return nil
}

// clusterMetrics fills the cluster.* metrics of a fleet run. The hop is
// the fleet's median latency minus that of the same by-name requests
// against one standalone server in the same invocation.
func (e *env) clusterMetrics(w *workload, win *window, m map[string]float64) error {
	var forwarded int
	var ownerTotal []float64
	for _, s := range win.samples {
		if s.forwarded {
			forwarded++
			if s.trace != nil {
				ownerTotal = append(ownerTotal, s.trace.TotalMS)
			}
		}
	}
	m["cluster.forwarded_share"] = ratio(float64(forwarded), float64(len(win.samples)))
	m["cluster.owner_total_ms_p50"] = median(ownerTotal)
	m["cluster.fallback_local"] = float64(win.fallbackLocal())

	single := *w
	single.replicas = 1
	pr, err := e.prepare(&single, true)
	if err != nil {
		return fmt.Errorf("standalone by-name server: %w", err)
	}
	defer pr.fleet.stop()
	base, err := pr.fleet.measure(pr.pool, max(e.seconds/4, time.Second))
	if err != nil {
		return err
	}
	if len(base.samples) == 0 {
		return fmt.Errorf("standalone by-name run: no request succeeded:%s", base.failureSummary())
	}
	m["cluster.hop_ms_p50"] = median(win.latencies()) - median(base.latencies())
	return nil
}

// probeOutcome is what the probe binary prints.
type probeOutcome struct {
	Metrics map[string]float64 `json:"metrics"`
	Spans   []span             `json:"spans"`
}

// runProbes builds and runs benchmark/probes, the in-process
// measurements of single layers, once per invocation. It is a separate
// program so the end-to-end harness does not compile against the
// packages it measures.
func (e *env) runProbes() (*probeOutcome, error) {
	if e.probes != nil {
		return e.probes, nil
	}
	start := time.Now()
	bin, err := goBuild(e.benchDir, "./probes", e.workDir, "respect-probes")
	if err != nil {
		return nil, err
	}
	out, err := runChild(exec.Command(bin, "-seed", fmt.Sprint(e.seed)))
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	po := &probeOutcome{}
	if err := json.Unmarshal(out, po); err != nil {
		return nil, fmt.Errorf("decode probe output: %w", err)
	}
	logf("probes took %.1fs", time.Since(start).Seconds())
	e.probes = po
	return po, nil
}
