package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"respect"
)

const (
	// coldBoots is how many times a run boots the workload's server from
	// exec to ready; setup_s is their median. A boot takes 3-40 ms, so
	// many are cheap, and few make a jumpy median: with 15 the 3 ms boot
	// of synth_miss spread 24 % between runs, with 45 it spreads 10 %.
	coldBoots = 45
	// defaultWarmUp is discarded before every measured window: it fills
	// the caches the workload is meant to hit and lets the Go runtime of
	// the server settle its heap.
	defaultWarmUp = 3 * time.Second
)

// The fleet replicas need to know each other's address before they
// start, so their ports are fixed.
var fleetAddrs = []string{"127.0.0.1:18471", "127.0.0.1:18472"}

// env is what every run of one invocation shares.
type env struct {
	bin      string // the respect-serve binary built from the working tree
	benchDir string // this package's directory
	workDir  string // scratch space inside the checkout
	seed     int64
	seconds  time.Duration
	warmUp   time.Duration
	agent    string        // RL fixture path, trained on first use
	probes   *probeOutcome // the probe binary's output, run on first use
}

// fixture returns the path of the RL agent file, training it on first
// use. Training happens before any timing and is no part of setup_s.
func (e *env) fixture() (string, error) {
	if e.agent == "" {
		path := filepath.Join(e.workDir, "rl-fixture.gob")
		start := time.Now()
		if err := trainFixture(path); err != nil {
			return "", err
		}
		logf("trained the rl fixture in %.2fs", time.Since(start).Seconds())
		e.agent = path
	}
	return e.agent, nil
}

// fleet is the booted server set of one workload: one process, or two
// replicas sharding the key space.
type fleet struct {
	servers []*server
	client  *http.Client // control-plane requests (stats), not the load
}

func (f *fleet) urls() []string {
	out := make([]string, len(f.servers))
	for i, s := range f.servers {
		out[i] = s.url
	}
	return out
}

func (f *fleet) stop() {
	for _, s := range f.servers {
		s.stop()
	}
	f.client.CloseIdleConnections()
}

// boot starts the workload's servers and returns once each is ready to
// serve at full speed, with the time from exec to that point. A busy
// fleet port fails here, before anything is timed.
func (e *env) boot(w *workload) (*fleet, time.Duration, error) {
	args := append([]string(nil), w.args...)
	if w.replicas > 1 {
		for _, addr := range fleetAddrs {
			if err := portFree(addr); err != nil {
				return nil, 0, err
			}
		}
	}
	if w.agent {
		path, err := e.fixture()
		if err != nil {
			return nil, 0, err
		}
		args = append(args, "-agent", path)
	}
	f := &fleet{client: &http.Client{Timeout: 10 * time.Second}}
	start := time.Now()
	for i := 0; i < w.replicas; i++ {
		addr, rargs := "127.0.0.1:0", args
		if w.replicas > 1 {
			peers := make([]string, len(fleetAddrs))
			for j, a := range fleetAddrs {
				peers[j] = "http://" + a
			}
			addr = fleetAddrs[i]
			rargs = append(append([]string(nil), args...), "-peers", strings.Join(peers, ","), "-advertise", peers[i])
		}
		s, err := startServer(e.bin, addr, rargs...)
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		f.servers = append(f.servers, s)
	}
	for _, s := range f.servers {
		if err := s.awaitReady(f.client, w.warmed); err != nil {
			f.stop()
			return nil, 0, err
		}
	}
	return f, time.Since(start), nil
}

// setupSeconds boots the workload's servers coldBoots times and returns
// the median time from exec to ready, on the reference machine's clock.
func (e *env) setupSeconds(w *workload) (float64, error) {
	cal := startCalibrator()
	var times []float64
	for i := 0; i < coldBoots; i++ {
		f, took, err := e.boot(w)
		if err != nil {
			cal.finish()
			return 0, fmt.Errorf("cold boot %d: %w", i+1, err)
		}
		f.stop()
		times = append(times, took.Seconds())
	}
	return median(times) / cal.finish().whole, nil
}

// window is one measured phase with the server-side counters around it.
// Its times (sample latencies, the server's trace durations, elapsed and
// CPU seconds) are on the reference machine's clock: see calib.go.
type window struct {
	*phase
	before, after []serverStats // per replica
	slow          *slowdown     // how fast the machine was, second by second
	refElapsed    time.Duration // the window's length on the reference machine
	serverCPU     float64       // seconds of server CPU over the window
	loadgenCPU    float64       // seconds of this process's CPU
	peakRSSMB     float64       // summed over replicas, at window end
	raw           rawWindow     // the same window as the wall clock saw it
}

// rawWindow keeps a window's unscaled numbers for the log.
type rawWindow struct {
	p50, p95, throughput, cpuMSPerReq float64
}

// classDelta sums a class's counter movement over the replicas.
func (w *window) classDelta(class string) classStats {
	var d classStats
	for i := range w.after {
		a, b := w.after[i].Classes[class], w.before[i].Classes[class]
		d.RejectedCapacity += a.RejectedCapacity - b.RejectedCapacity
		d.RejectedQueueTimeout += a.RejectedQueueTimeout - b.RejectedQueueTimeout
		d.CacheHits += a.CacheHits - b.CacheHits
		d.CacheMisses += a.CacheMisses - b.CacheMisses
		d.CacheEvictions += a.CacheEvictions - b.CacheEvictions
	}
	return d
}

// fallbackLocal counts requests a replica solved itself because the hop
// to the owner failed or the owner looked unhealthy.
func (w *window) fallbackLocal() uint64 {
	var n uint64
	for i := range w.after {
		a, b := w.after[i].Cluster, w.before[i].Cluster
		if a == nil || b == nil {
			continue
		}
		n += a.ForwardErrors - b.ForwardErrors + a.ForwardsLocalUnhealthy - b.ForwardsLocalUnhealthy
	}
	return n
}

func (f *fleet) allStats() ([]serverStats, error) {
	out := make([]serverStats, len(f.servers))
	for i, s := range f.servers {
		st, err := s.stats(f.client)
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

func (f *fleet) cpuSeconds() (float64, error) {
	total := 0.0
	for _, s := range f.servers {
		c, err := cpuSeconds(s.pid)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// selfCPUSeconds is this process's own user+system time: the load
// generator's cost, reported so it can be told apart from the server's.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// cpuSample is the fleet's cumulative CPU time at one moment of a window.
type cpuSample struct {
	at      time.Duration
	seconds float64
}

// sampleCPU reads the fleet's CPU clock once per speedSlice until stop is
// closed, and once more then. The first sample is taken before it
// returns the channel the rest arrive on.
func (f *fleet) sampleCPU(stop <-chan struct{}) (<-chan []cpuSample, error) {
	begin := time.Now()
	first, err := f.cpuSeconds()
	if err != nil {
		return nil, err
	}
	out := make(chan []cpuSample, 1)
	go func() {
		samples := []cpuSample{{0, first}}
		tick := time.NewTicker(speedSlice)
		defer tick.Stop()
		for done := false; !done; {
			select {
			case <-stop:
				done = true
			case <-tick.C:
			}
			// A read that fails (the server died) ends the series; the
			// window's own error handling reports the death.
			c, err := f.cpuSeconds()
			if err != nil {
				break
			}
			samples = append(samples, cpuSample{time.Since(begin), c})
		}
		out <- samples
	}()
	return out, nil
}

// measure runs one closed-loop phase of d against the fleet, with the
// server counters read immediately before and after and the machine's
// speed and the servers' CPU clock sampled throughout, and puts every
// time it measured on the reference machine's clock.
func (f *fleet) measure(p *pool, d time.Duration) (*window, error) {
	w := &window{}
	var err error
	if w.before, err = f.allStats(); err != nil {
		return nil, err
	}
	stopCPU := make(chan struct{})
	cpuSeries, err := f.sampleCPU(stopCPU)
	if err != nil {
		return nil, err
	}
	cal := startCalibrator()
	self0 := selfCPUSeconds()
	w.phase = runPhase(f.urls(), p, d)
	w.loadgenCPU = selfCPUSeconds() - self0
	w.slow = cal.finish()
	close(stopCPU)
	cpu := <-cpuSeries
	if w.after, err = f.allStats(); err != nil {
		return nil, err
	}
	for _, s := range f.servers {
		rss, err := peakRSSMB(s.pid)
		if err != nil {
			return nil, err
		}
		w.peakRSSMB += rss
	}
	w.toReferenceClock(cpu)
	return w, nil
}

// toReferenceClock divides every time of the window by the machine's
// slowdown in the second it was measured in.
func (w *window) toReferenceClock(cpu []cpuSample) {
	lat := w.latencies()
	ok := float64(len(w.samples))
	rawCPU := cpu[len(cpu)-1].seconds - cpu[0].seconds
	w.raw = rawWindow{p50: percentile(lat, 50), p95: percentile(lat, 95),
		throughput: ratio(ok, w.elapsed.Seconds()), cpuMSPerReq: ratio(rawCPU*1000, ok)}

	for i := range w.samples {
		s := &w.samples[i]
		f := w.slow.at(s.start + time.Duration(s.ms*float64(time.Millisecond)))
		s.ms /= f
		if t := s.trace; t != nil {
			t.QueueWaitMS /= f
			t.SolveMS /= f
			t.TotalMS /= f
			for j := range t.Backends {
				t.Backends[j].StartMS /= f
				t.Backends[j].FinishMS /= f
			}
		}
	}
	w.refElapsed = w.slow.reference(0, w.elapsed)
	for j := 1; j < len(cpu); j++ {
		mid := (cpu[j-1].at + cpu[j].at) / 2
		w.serverCPU += (cpu[j].seconds - cpu[j-1].seconds) / w.slow.at(mid)
	}
	w.loadgenCPU /= w.slow.whole
}

// learnOwners sends every key once to replica 0 and reads from the
// forwarding header who owns it, then points each request at the replica
// that does not: in the measured window every request takes exactly one
// hop, whatever the fixed ports hash to. The pass also leaves every key
// cached on its owner.
func (f *fleet) learnOwners(p *pool) error {
	client := newClient()
	defer client.CloseIdleConnections()
	owner := make(map[int]int, len(p.keys))
	for i := range p.cycle {
		req := &p.cycle[i]
		if _, ok := owner[req.key]; ok {
			continue
		}
		resp, err := postSchedule(client, f.servers[0].url, req.body)
		if err != nil {
			return fmt.Errorf("learn owners: %w", err)
		}
		owner[req.key] = 0
		if resp.Header.Get(forwardedToHeader) != "" {
			owner[req.key] = 1
		}
	}
	for i := range p.cycle {
		p.cycle[i].target = 1 - owner[p.cycle[i].key]
	}
	return nil
}

// result is one workload run's outcome in the shape the last output line
// reports.
type result struct {
	workload  string
	attempted int
	failed    int
	metrics   map[string]float64
	wall      time.Duration
}

// prepared is a booted, warmed workload ready for measured windows.
type prepared struct {
	fleet *fleet
	pool  *pool
	warm  *phase
}

// prepare builds the pool, boots the servers and runs the warm-up.
func (e *env) prepare(w *workload, trace bool) (*prepared, error) {
	p, err := w.pool(e.seed, w.opts(trace))
	if err != nil {
		return nil, fmt.Errorf("build %s pool: %w", w.name, err)
	}
	f, _, err := e.boot(w)
	if err != nil {
		return nil, err
	}
	if w.replicas > 1 {
		if err := f.learnOwners(p); err != nil {
			f.stop()
			return nil, err
		}
	}
	warm := runPhase(f.urls(), p, e.warmUp)
	if len(warm.samples) == 0 {
		f.stop()
		return nil, fmt.Errorf("%s: no request succeeded during warm-up:%s", w.name, warm.failureSummary())
	}
	return &prepared{fleet: f, pool: p, warm: warm}, nil
}

// runEndToEnd measures one workload untraced and returns the end-to-end
// metrics.
func (e *env) runEndToEnd(w *workload) (*result, error) {
	begin := time.Now()
	setup, err := e.setupSeconds(w)
	if err != nil {
		return nil, err
	}
	pr, err := e.prepare(w, false)
	if err != nil {
		return nil, err
	}
	defer pr.fleet.stop()
	win, err := pr.fleet.measure(pr.pool, e.seconds)
	if err != nil {
		return nil, err
	}
	res := &result{workload: w.name, attempted: win.sent, failed: win.failed(), wall: time.Since(begin)}
	if win.failed() > 0 {
		logf("%s: %d of %d requests failed:%s", w.name, win.failed(), win.sent, win.failureSummary())
	}
	if len(win.samples) == 0 {
		return res, fmt.Errorf("%s: no request succeeded", w.name)
	}
	logf("%s: %d samples in %.1fs; calibration burst took %.2fx its reference time (worst second %.2fx); on the wall clock: p50 %.3f ms, p95 %.3f ms, %.1f req/s, %.3f cpu ms/req",
		w.name, len(win.samples), win.elapsed.Seconds(), win.slow.whole, win.slow.max(),
		win.raw.p50, win.raw.p95, win.raw.throughput, win.raw.cpuMSPerReq)
	lat := win.latencies()
	if err := w.gate(win); err != nil {
		return res, fmt.Errorf("%s: validity gate failed: %w", w.name, err)
	}
	q, err := quality(pr.pool, pr.warm, win.phase)
	if err != nil {
		return res, fmt.Errorf("%s: %w", w.name, err)
	}
	ok := float64(len(win.samples))
	res.metrics = map[string]float64{
		"setup_s":           setup,
		"latency_p50_ms":    percentile(lat, 50),
		"latency_p95_ms":    percentile(lat, 95),
		"throughput_rps":    ok / win.refElapsed.Seconds(),
		"ok_share":          ok / float64(win.sent),
		"cpu_ms_per_req":    win.serverCPU * 1000 / ok,
		"peak_rss_mb":       win.peakRSSMB,
		"sim_inference_ips": q.simIPS,
		"peak_param_mb":     q.peakParamMB,
	}
	res.wall = time.Since(begin)
	logf("%s: %d of %d distinct keys served", w.name, q.keys, len(pr.pool.keys))
	return res, nil
}

// served schedule quality over the distinct keys of a run.
type qualityReport struct {
	keys        int
	simIPS      float64
	peakParamMB float64
}

// quality simulates the first schedule served for every distinct key on
// the Coral pipeline model. Each key counts once, so the numbers depend
// on what the solvers answered and not on how often a key was asked;
// with every key of the pool reached they repeat exactly from run to run.
func quality(p *pool, phases ...*phase) (qualityReport, error) {
	first := map[int]served{}
	for _, ph := range phases {
		for id, s := range ph.served {
			if _, ok := first[id]; !ok {
				first[id] = s
			}
		}
	}
	hw := respect.CoralHW()
	var bottleneck time.Duration
	var peak float64
	for id, s := range first {
		k := p.keys[id]
		rep, err := respect.Simulate(k.inst.graph, respect.Schedule{NumStages: k.stages, Stage: s.stage}, hw)
		if err != nil {
			return qualityReport{}, fmt.Errorf("served schedule for %s/%d stages is not deployable: %w", k.inst.name, k.stages, err)
		}
		bottleneck += rep.Bottleneck
		peak += float64(s.peakParam)
	}
	n := float64(len(first))
	return qualityReport{
		keys:        len(first),
		simIPS:      n / bottleneck.Seconds(),
		peakParamMB: peak / n / (1 << 20),
	}, nil
}
