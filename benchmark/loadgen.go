package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// clients is the closed loop's width: one caller per core of the sizing
// machine, each waiting for its reply before it sends the next request,
// the way a compile pipeline or an edge gateway calls this service.
const clients = 2

// forwardedToHeader is set by a replica that relayed the request to the
// key's home shard.
const forwardedToHeader = "X-Respect-Forwarded-To"

// scheduleResponse mirrors the POST /v1/schedule fields the benchmark
// reads.
type scheduleResponse struct {
	Stages  int    `json:"stages"`
	Backend string `json:"backend"`
	Stage   []int  `json:"stage"`
	Cost    struct {
		PeakParamBytes int64 `json:"peak_param_bytes"`
	} `json:"cost"`
	Truncated bool           `json:"truncated"`
	CacheHit  bool           `json:"cache_hit"`
	Trace     *responseTrace `json:"trace"`
}

// responseTrace is the server's per-request timeline ("trace": true).
type responseTrace struct {
	QueueWaitMS float64 `json:"queue_wait_ms"`
	Cache       string  `json:"cache"`
	SolveMS     float64 `json:"solve_ms"`
	TotalMS     float64 `json:"total_ms"`
	Backends    []struct {
		Backend  string  `json:"backend"`
		StartMS  float64 `json:"start_ms"`
		FinishMS float64 `json:"finish_ms"`
		Outcome  string  `json:"outcome"`
	} `json:"backends"`
}

// sample is one OK request of a phase.
type sample struct {
	start     time.Duration // since the phase began
	ms        float64       // client-side latency
	kind      requestKind
	forwarded bool
	trace     *responseTrace // nil on untraced runs
}

// served is the first schedule a key was answered with.
type served struct {
	stage     []int
	peakParam int64
}

// phase is everything one closed-loop run observed.
type phase struct {
	elapsed   time.Duration
	sent      int
	samples   []sample // the OK requests
	failures  map[string]int
	cacheHits int
	truncated int
	backends  map[string]int
	served    map[int]served // key index -> first answer
}

func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		out[i] = s.ms
	}
	return out
}

func (p *phase) failed() int { return p.sent - len(p.samples) }

func (p *phase) failureSummary() string {
	var b bytes.Buffer
	for reason, n := range p.failures {
		fmt.Fprintf(&b, "\n  %d x %s", n, reason)
	}
	return b.String()
}

// newClient returns an HTTP client that keeps one idle connection per
// server, so each closed-loop caller holds one keep-alive connection to
// each replica it talks to.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// runPhase walks the pool's cycle on from its cursor with the closed-loop
// clients for d and returns what they saw. Every response is decoded and
// its schedule checked after the latency clock stopped; a request counts
// as OK only if it returned 200 with a valid schedule for its graph.
func runPhase(urls []string, p *pool, d time.Duration) *phase {
	parts := make([]*phase, clients)
	begin := time.Now()
	deadline := begin.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			parts[c] = runClient(urls, p, begin, deadline)
		}(c)
	}
	wg.Wait()
	out := &phase{elapsed: time.Since(begin), failures: map[string]int{}, backends: map[string]int{}, served: map[int]served{}}
	for _, part := range parts {
		out.sent += part.sent
		out.samples = append(out.samples, part.samples...)
		out.cacheHits += part.cacheHits
		out.truncated += part.truncated
		for k, v := range part.failures {
			out.failures[k] += v
		}
		for k, v := range part.backends {
			out.backends[k] += v
		}
		for k, v := range part.served {
			if _, ok := out.served[k]; !ok {
				out.served[k] = v
			}
		}
	}
	sort.Slice(out.samples, func(i, j int) bool { return out.samples[i].start < out.samples[j].start })
	return out
}

func runClient(urls []string, p *pool, begin, deadline time.Time) *phase {
	ph := &phase{failures: map[string]int{}, backends: map[string]int{}, served: map[int]served{}}
	client := newClient()
	defer client.CloseIdleConnections()
	var buf bytes.Buffer
	for time.Now().Before(deadline) {
		req := &p.cycle[int(p.cursor.Add(1)-1)%len(p.cycle)]
		k := p.keys[req.key]
		ph.sent++

		start := time.Now()
		resp, err := client.Post(urls[req.target]+"/v1/schedule", "application/json", bytes.NewReader(req.body))
		if err != nil {
			ph.failures[fmt.Sprintf("transport: %v", err)]++
			continue
		}
		buf.Reset()
		_, err = io.Copy(&buf, resp.Body)
		resp.Body.Close()
		lat := time.Since(start)

		if err != nil {
			ph.failures[fmt.Sprintf("read body: %v", err)]++
			continue
		}
		if resp.StatusCode != http.StatusOK {
			ph.failures[fmt.Sprintf("status %d", resp.StatusCode)]++
			continue
		}
		var sr scheduleResponse
		if err := json.Unmarshal(buf.Bytes(), &sr); err != nil {
			ph.failures[fmt.Sprintf("decode response: %v", err)]++
			continue
		}
		if sr.Stages != k.stages {
			ph.failures[fmt.Sprintf("answered for %d stages, asked %d", sr.Stages, k.stages)]++
			continue
		}
		if err := checkSchedule(sr.Stage, k.inst.nodes, k.stages, k.inst.edges); err != nil {
			ph.failures["invalid schedule: "+err.Error()]++
			continue
		}
		ph.samples = append(ph.samples, sample{
			start:     start.Sub(begin),
			ms:        float64(lat) / float64(time.Millisecond),
			kind:      req.kind,
			forwarded: resp.Header.Get(forwardedToHeader) != "",
			trace:     sr.Trace,
		})
		ph.backends[sr.Backend]++
		if sr.CacheHit {
			ph.cacheHits++
		}
		if sr.Truncated {
			ph.truncated++
		}
		if _, ok := ph.served[req.key]; !ok {
			ph.served[req.key] = served{stage: sr.Stage, peakParam: sr.Cost.PeakParamBytes}
		}
	}
	return ph
}

// postSchedule sends one schedule request outside any measurement and
// returns the response with its body drained; anything but 200 is an
// error.
func postSchedule(client *http.Client, url string, body []byte) (*http.Response, error) {
	resp, err := client.Post(url+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /v1/schedule: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return resp, nil
}
