// Package serve is RESPECT's network scheduling service: an HTTP/JSON
// front end over the internal/solver engine layer that turns
// millisecond-scale schedule inference into a serving primitive.
//
// Requests carry a class (interactive, batch, best-effort) that maps to a
// per-class latency budget and a backend portfolio: interactive traffic
// races cached fast backends under a tight deadline, batch traffic is
// allowed to include the exact solvers under a budget of seconds. An
// admission controller enforces per-class concurrency limits and queue
// depth, rejecting over-capacity work with 429 + Retry-After instead of
// letting every request degrade. Schedules are memoized per class by graph
// fingerprint, and the cache can be warmed from the model zoo so the first
// request for a zoo model is already a hit.
//
// The service is fully observable: every request feeds a Prometheus-style
// metrics registry (per-class latency histograms labeled by outcome,
// admission counters and occupancy gauges, per-backend solve histograms,
// cache and portfolio counters) exposed at GET /metrics, and a request
// can opt into a structured per-request trace (queue wait, cache consult,
// per-backend timeline) with "trace": true. Traces and metrics are
// derived from the same measurements, so they can never disagree; the
// admission counters and gauges are function-backed on the same atomics
// as GET /v1/stats for the same reason.
//
// Endpoints:
//
//	POST /v1/schedule   one graph (zoo name or inline JSON) -> schedule
//	POST /v1/batch      many graphs through one backend -> schedules
//	POST /v1/periodic   register a periodic (period, deadline) stream
//	GET  /v1/periodic   periodic stream set + deadline-miss counters
//	DELETE /v1/periodic/{name}  unregister a periodic stream
//	GET  /v1/backends   registered backends, zoo models, class policies
//	GET  /v1/stats      admission / cache / uptime (+ fleet) counters
//	GET  /v1/cluster/heartbeat  peer liveness probe
//	GET  /metrics       Prometheus text exposition (v0.0.4)
//	GET  /healthz       liveness probe
//
// The periodic endpoints are mounted only when Config.RT.Enabled is set:
// the service then also runs a real-time dispatcher (internal/rt) that
// releases one scheduling job per stream per period into a pluggable
// FIFO/RM/EDF queue discipline, with schedulability-test admission and
// deadline-miss/tardiness metrics.
//
// The heartbeat endpoint is mounted only when Config.Cluster.Peers is
// set: the server then shards the graph-fingerprint space across the
// fleet by consistent hashing and proxies each /v1/schedule request to
// its home shard (falling back to a local solve when the owner is
// unhealthy); a /v1/batch is solved where it arrives. A replica
// counts the requests it relays as its own speculation demand, so when
// an owner dies a survivor has already warmed the keys its own share of
// the traffic made hot.
package serve

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"respect/internal/cluster"
	"respect/internal/metrics"
	"respect/internal/models"
	"respect/internal/online"
	"respect/internal/rt"
	"respect/internal/sched"
	"respect/internal/solver"
	"respect/internal/speculate"
)

// Class names a request service class; it selects the latency budget,
// backend portfolio and admission limits applied to a request.
type Class string

// The built-in request classes.
const (
	// ClassInteractive is latency-sensitive traffic: fast cached backends
	// under a tens-of-milliseconds budget.
	ClassInteractive Class = "interactive"
	// ClassBatch is throughput traffic: a portfolio including the exact
	// solvers under a budget of seconds.
	ClassBatch Class = "batch"
	// ClassBestEffort is background work: the strongest solver, few
	// concurrent slots, a generous budget.
	ClassBestEffort Class = "best-effort"
)

// ClassPolicy is the serving policy of one request class.
type ClassPolicy struct {
	// Budget bounds one request's scheduling time (context deadline).
	// Anytime backends return budget-cut incumbents at expiry, flagged
	// truncated in the response.
	Budget time.Duration
	// Patience bounds how long a request keeps waiting for slower
	// portfolio members once the first valid schedule is in: after it
	// elapses the stragglers are cancelled (anytime solvers hand back
	// incumbents) and the request returns. Zero waits out the full
	// Budget, which maximizes quality but holds an admission slot for
	// the worst-case member on every cache miss.
	Patience time.Duration
	// Backends is the portfolio raced for this class (registry names).
	Backends []string
	// MaxConcurrent bounds simultaneously admitted requests.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for admission beyond MaxConcurrent;
	// arrivals past the queue are rejected with 429.
	MaxQueue int
	// Warm marks the class's schedule cache for zoo warm-up.
	Warm bool
}

// DefaultClasses returns the built-in class table: interactive (50 ms,
// fast heuristics, warmed), batch (5 s, portfolio including exact) and
// best-effort (30 s, two slots, exact-ilp-grade alone: its proof, the
// (peak, cross) optimum, cannot be beaten).
func DefaultClasses() map[Class]ClassPolicy {
	return map[Class]ClassPolicy{
		ClassInteractive: {
			Budget:        50 * time.Millisecond,
			Backends:      []string{"heur", "compiler"},
			MaxConcurrent: 32,
			MaxQueue:      64,
			Warm:          true,
		},
		ClassBatch: {
			Budget:        5 * time.Second,
			Patience:      2 * time.Second,
			Backends:      []string{"heur", "exact", "compiler"},
			MaxConcurrent: 4,
			MaxQueue:      16,
		},
		ClassBestEffort: {
			Budget:        30 * time.Second,
			Backends:      []string{"exact-ilp-grade"},
			MaxConcurrent: 2,
			MaxQueue:      8,
		},
	}
}

// Config configures a scheduling service.
type Config struct {
	// Stages is the pipeline length used when a request omits stages
	// (default 4).
	Stages int
	// CacheSize caps each per-class (and per-backend batch) schedule
	// cache (default 512 entries).
	CacheSize int
	// Classes overrides the class table; nil uses DefaultClasses.
	Classes map[Class]ClassPolicy
	// WarmModels lists the zoo models pre-scheduled by WarmUp. nil warms
	// the whole zoo; an empty non-nil slice disables warm-up.
	WarmModels []string
	// LatencyBuckets overrides the latency histogram bucket upper bounds
	// (seconds); nil uses metrics.DefBuckets (5 ms .. 10 s).
	LatencyBuckets []float64
	// DisableMetrics leaves GET /metrics unmounted. Collection itself is
	// a few lock-free atomics per request and stays on.
	DisableMetrics bool
	// MaxBodyBytes caps request body size; oversized bodies are rejected
	// with 413 Request Entity Too Large (default 16 MiB).
	MaxBodyBytes int64
	// Speculation tunes speculative warm-cache scheduling for the
	// warm-marked classes; the zero value leaves it off.
	Speculation SpeculationConfig
	// RT enables the periodic-task mode (/v1/periodic streams dispatched
	// by deadline-aware queue disciplines); the zero value leaves it off.
	RT RTConfig
	// Cluster enables fleet mode: consistent-hash sharding over the peer
	// set with request forwarding. The zero value (no peers) leaves the
	// server standalone.
	Cluster ClusterConfig
	// Online enables the learning loop: solved requests feed a replay
	// buffer, background training rounds produce candidate agents, and
	// shadow-evaluated winners hot-reload into the class portfolios. The
	// zero value leaves it off.
	Online OnlineConfig
	// Logf, when set, receives service log lines (warm-up, shutdown).
	Logf func(format string, args ...any)
}

// classState is one request class's runtime: its policy, admission
// controller, memoizing engine and (when enabled for a warm-marked class)
// its speculative warmer.
type classState struct {
	policy ClassPolicy
	adm    *admission
	engine *solver.Engine
	spec   *speculate.Speculator // nil unless speculation is on for this class
}

// Server is the scheduling service. It implements http.Handler; construct
// with New and mount anywhere (an http.Server, a test mux).
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	classes map[Class]*classState
	start   time.Time

	requests atomic.Uint64
	warmed   atomic.Int64

	batchCaches *solver.CacheSet
	speculators []*speculate.Speculator // the warm-marked classes' warmers

	// Observability: one registry per server, holding the serve-layer
	// families below plus the solver-layer Instruments. Admission counters
	// and occupancy gauges are function-backed on the admission atomics,
	// so /metrics and /v1/stats always reconcile.
	reg            *metrics.Registry
	ins            *solver.Instruments
	reqSeconds     *metrics.HistogramVec // class, outcome
	queueSeconds   *metrics.HistogramVec // class
	admissionTotal *metrics.CounterVec   // class, result (func-backed)

	// Fleet mode (nil unless Config.Cluster.Peers is set): membership,
	// sharding and the forwarding counters.
	cluster *clusterState

	// Learning loop (nil unless Config.Online.Enabled): the replay
	// buffer + trainer + promotion manager, and the parking lot joining
	// periodic solves with their deadline outcomes.
	onlineMgr *online.Manager
	rtSolves  rtSolves

	// Periodic-task mode (nil/zero unless Config.RT.Enabled): the
	// dispatcher and the rt metric families.
	rtDisp      *rt.Dispatcher
	rtTardiness *metrics.Histogram
	rtMisses    *metrics.CounterVec // stream, policy (func-backed)
	rtReleases  *metrics.CounterVec // stream (func-backed)
	rtUtil      *metrics.GaugeVec   // stream (func-backed)
}

// New validates cfg (unknown backend names in class policies are rejected
// eagerly) and returns a ready-to-mount service. Backends are resolved
// dynamically per request, so registering an RL agent after New takes
// effect immediately.
func New(cfg Config) (*Server, error) {
	if cfg.Stages == 0 {
		cfg.Stages = 4
	}
	if cfg.Stages < 1 || cfg.Stages > sched.MaxStages {
		return nil, fmt.Errorf("serve: default stages %d outside [1,%d]", cfg.Stages, sched.MaxStages)
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 512
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = defaultMaxBodyBytes
	}
	if cfg.MaxBodyBytes < 1 {
		return nil, fmt.Errorf("serve: MaxBodyBytes %d must be positive", cfg.MaxBodyBytes)
	}
	for _, b := range cfg.LatencyBuckets {
		if b <= 0 || math.IsNaN(b) {
			return nil, fmt.Errorf("serve: latency bucket %v must be positive", b)
		}
	}
	if cfg.Classes == nil {
		cfg.Classes = DefaultClasses()
	}
	// The learning loop comes up before class policies are validated: it
	// registers the rl-online-<class> backends and appends them to each
	// class's portfolio, so the class loop below sees resolvable names.
	var onlineMgr *online.Manager
	if cfg.Online.Enabled {
		mgr, classes, err := newOnlineManager(cfg)
		if err != nil {
			return nil, fmt.Errorf("serve: online: %w", err)
		}
		onlineMgr, cfg.Classes = mgr, classes
	}
	if len(cfg.WarmModels) > 0 {
		known := make(map[string]bool)
		for _, name := range models.Names() {
			known[name] = true
		}
		for _, name := range cfg.WarmModels {
			if !known[name] {
				return nil, fmt.Errorf("serve: warm-up set: unknown model %q (have %v)", name, models.Names())
			}
		}
	}

	s := &Server{
		cfg:         cfg,
		classes:     make(map[Class]*classState, len(cfg.Classes)),
		start:       time.Now(),
		batchCaches: solver.NewCacheSet(solver.Default(), cfg.CacheSize),
		onlineMgr:   onlineMgr,
	}
	for class, policy := range cfg.Classes {
		if class == "" {
			return nil, fmt.Errorf("serve: empty class name")
		}
		if policy.Budget <= 0 {
			return nil, fmt.Errorf("serve: class %q: budget %v must be positive", class, policy.Budget)
		}
		if len(policy.Backends) == 0 {
			return nil, fmt.Errorf("serve: class %q: no backends", class)
		}
		if policy.MaxConcurrent < 1 {
			return nil, fmt.Errorf("serve: class %q: MaxConcurrent %d must be at least 1", class, policy.MaxConcurrent)
		}
		if policy.MaxQueue < 0 {
			return nil, fmt.Errorf("serve: class %q: MaxQueue %d must not be negative", class, policy.MaxQueue)
		}
		backends := make([]solver.Scheduler, len(policy.Backends))
		for i, name := range policy.Backends {
			if _, err := solver.Lookup(name); err != nil {
				return nil, fmt.Errorf("serve: class %q: %w", class, err)
			}
			backends[i] = solver.Dynamic(solver.Default(), name)
		}
		if policy.Patience < 0 {
			return nil, fmt.Errorf("serve: class %q: Patience %v must not be negative", class, policy.Patience)
		}
		s.classes[class] = &classState{
			policy: policy,
			adm:    newAdmission(policy.MaxConcurrent, policy.MaxQueue),
			engine: solver.NewEngine(backends, cfg.CacheSize, solver.PortfolioOptions{Patience: policy.Patience}),
		}
	}
	s.initMetrics()
	s.initOnlineMetrics()
	if err := s.initSpeculation(); err != nil {
		return nil, err
	}
	if err := s.initRT(); err != nil {
		return nil, err
	}
	if err := s.initCluster(); err != nil {
		return nil, err
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/schedule", s.handleSchedule)
	s.mux.HandleFunc("/v1/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/backends", s.handleBackends)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	if s.rtDisp != nil {
		s.mux.HandleFunc("/v1/periodic", s.handlePeriodic)
		s.mux.HandleFunc("/v1/periodic/", s.handlePeriodicItem)
	}
	if s.cluster != nil {
		s.mux.HandleFunc(cluster.HeartbeatPath, s.handleClusterHeartbeat)
	}
	if !cfg.DisableMetrics {
		s.mux.Handle("/metrics", s.reg.Handler())
	}
	return s, nil
}

// initMetrics registers the serve-layer metric families and wires every
// class engine, admission controller and batch cache into the server's
// registry. Counters that mirror /v1/stats are function-backed on the
// same atomics, so the two views always agree.
func (s *Server) initMetrics() {
	s.reg = metrics.NewRegistry()
	s.ins = solver.NewInstruments(s.reg, s.cfg.LatencyBuckets)
	s.reqSeconds = s.reg.HistogramVec("respect_request_duration_seconds",
		"End-to-end request latency (including admission queue wait) by class and outcome.",
		s.cfg.LatencyBuckets, "class", "outcome")
	s.queueSeconds = s.reg.HistogramVec("respect_admission_wait_seconds",
		"Time a request spent waiting for admission (queue wait), per class.",
		s.cfg.LatencyBuckets, "class")
	s.admissionTotal = s.reg.CounterVec("respect_admission_requests_total",
		"Admission decisions per class (result is admitted, rejected_capacity or rejected_timeout).",
		"class", "result")
	activeGauge := s.reg.GaugeVec("respect_active_requests",
		"Currently admitted in-flight requests, per class.", "class")
	queuedGauge := s.reg.GaugeVec("respect_queued_requests",
		"Requests waiting for admission, per class.", "class")
	s.reg.CounterFunc("respect_http_requests_total",
		"HTTP requests received on any endpoint.",
		func() float64 { return float64(s.requests.Load()) })
	s.reg.GaugeFunc("respect_warmed_schedules",
		"Schedules memoized by the model-zoo warm-up.",
		func() float64 { return float64(s.warmed.Load()) })
	s.reg.GaugeFunc("respect_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return time.Since(s.start).Seconds() })

	for class, st := range s.classes {
		st.engine.Instrument(s.ins, string(class))
		adm := st.adm
		s.admissionTotal.Func(func() float64 { return float64(adm.admitted.Load()) },
			string(class), "admitted")
		s.admissionTotal.Func(func() float64 { return float64(adm.rejectedCapacity.Load()) },
			string(class), "rejected_capacity")
		s.admissionTotal.Func(func() float64 { return float64(adm.rejectedTimeout.Load()) },
			string(class), "rejected_timeout")
		activeGauge.Func(func() float64 { return float64(adm.active()) }, string(class))
		queuedGauge.Func(func() float64 { return float64(adm.queued()) }, string(class))
	}
	s.batchCaches.Instrument(s.ins, "batch/")
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.mux.ServeHTTP(w, r)
}

// logf forwards to the configured logger, if any.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// class resolves a request's class string ("" defaults to fallback).
func (s *Server) class(name string, fallback Class) (Class, *classState, error) {
	c := Class(name)
	if name == "" {
		c = fallback
	}
	st, ok := s.classes[c]
	if !ok {
		have := make([]string, 0, len(s.classes))
		for k := range s.classes {
			have = append(have, string(k))
		}
		if name == "" {
			return c, nil, fmt.Errorf("no class given and the default class %q is not configured (have %v)", c, have)
		}
		return c, nil, fmt.Errorf("unknown class %q (have %v)", name, have)
	}
	return c, st, nil
}

// WarmUp pre-schedules the configured zoo models (Config.WarmModels; the
// whole zoo when nil) into every warm-marked class's cache, fanning solves
// out concurrently. Solves run without per-request budgets so only
// full-effort schedules are stored; bound the total with ctx. It returns
// the number of memoized schedules and the first warm error, and is safe
// to run while the server handles traffic.
func (s *Server) WarmUp(ctx context.Context) (int, error) {
	names := s.cfg.WarmModels
	if names == nil {
		names = models.Names()
	}
	anyWarm := false
	for _, st := range s.classes {
		anyWarm = anyWarm || st.policy.Warm
	}
	if len(names) == 0 || !anyWarm {
		return 0, nil
	}
	graphs, err := models.LoadMany(names...)
	if err != nil {
		return 0, err
	}
	total := 0
	var firstErr error
	for class, st := range s.classes {
		if !st.policy.Warm {
			continue
		}
		start := time.Now()
		stored, err := st.engine.Warm(ctx, graphs, s.cfg.Stages)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("serve: warm-up class %q: %w", class, err)
		}
		total += stored
		s.logf("warm-up: class %s: %d/%d schedules cached in %v", class, stored, len(graphs), time.Since(start).Round(time.Millisecond))
	}
	s.warmed.Store(int64(total))
	return total, firstErr
}

// Run serves s on ln until ctx is cancelled, then shuts down gracefully:
// in-flight requests drain (bounded by a 10 s grace period) and the
// concurrent model-zoo warm-up and the speculative warmers are stopped
// and awaited before Run returns, so no background solve outlives the
// service. Run owns ln. This is the shared lifecycle behind respect.Serve
// and cmd/respect-serve.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	warmCtx, warmCancel := context.WithCancel(ctx)
	defer warmCancel()
	warmDone := make(chan struct{})
	go func() {
		defer close(warmDone)
		if n, err := s.WarmUp(warmCtx); err != nil {
			s.logf("warm-up: %v (after %d schedules)", err, n)
		}
	}()
	stopSpec := s.runSpeculators(ctx)
	defer stopSpec()
	stopOnline := s.runOnline(ctx)
	defer stopOnline()
	stopRT, err := s.runRT(ctx)
	if err != nil {
		return err
	}
	defer stopRT()
	clusterDone := make(chan struct{})
	if s.cluster != nil {
		defer s.cluster.link.closeIdle() // after Shutdown: no forward is left in flight
		go func() {
			defer close(clusterDone)
			s.cluster.node.Run(ctx)
		}()
	} else {
		close(clusterDone)
	}

	httpSrv := &http.Server{Handler: s, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.logf("shutting down")
	warmCancel()
	<-warmDone
	stopSpec()
	stopOnline()
	stopRT()
	<-clusterDone // ctx is done, so the membership loops have exited
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	<-errc // Serve returned http.ErrServerClosed
	return nil
}

// ClassStats is one class's admission and cache telemetry.
type ClassStats struct {
	Admitted             uint64 `json:"admitted"`
	RejectedCapacity     uint64 `json:"rejected_capacity"`
	RejectedQueueTimeout uint64 `json:"rejected_queue_timeout"`
	Active               int    `json:"active"`
	Queued               int    `json:"queued"`
	CacheHits            uint64 `json:"cache_hits"`
	CacheMisses          uint64 `json:"cache_misses"`
	CacheEvictions       uint64 `json:"cache_evictions"`
	CacheLen             int    `json:"cache_len"`
}

// Stats is a point-in-time service telemetry snapshot.
type Stats struct {
	UptimeMS        float64               `json:"uptime_ms"`
	Requests        uint64                `json:"requests"`
	WarmedSchedules int64                 `json:"warmed_schedules"`
	Classes         map[string]ClassStats `json:"classes"`
	// Speculation aggregates the class speculators' counters; absent when
	// speculative warming is disabled.
	Speculation *speculate.Stats `json:"speculation,omitempty"`
	// RT is the periodic-task dispatcher snapshot; absent when the mode
	// is disabled.
	RT *rt.Stats `json:"rt,omitempty"`
	// Cluster is the fleet membership/forwarding snapshot; absent when
	// clustering is disabled.
	Cluster *ClusterStats `json:"cluster,omitempty"`
	// Online is the learning-loop snapshot (buffer fills, promotions,
	// shadow gaps); absent when the loop is disabled.
	Online *online.Stats `json:"online,omitempty"`
}

// Stats snapshots admission, cache and request counters.
func (s *Server) Stats() Stats {
	out := Stats{
		UptimeMS:        float64(time.Since(s.start)) / float64(time.Millisecond),
		Requests:        s.requests.Load(),
		WarmedSchedules: s.warmed.Load(),
		Classes:         make(map[string]ClassStats, len(s.classes)),
	}
	if len(s.speculators) > 0 {
		agg := s.SpeculationStats()
		out.Speculation = &agg
	}
	if s.rtDisp != nil {
		rts := s.rtDisp.Stats()
		out.RT = &rts
	}
	if s.onlineMgr != nil {
		ost := s.onlineMgr.Stats()
		out.Online = &ost
	}
	out.Cluster = s.ClusterStats()
	for class, st := range s.classes {
		hits, misses := st.engine.Stats()
		out.Classes[string(class)] = ClassStats{
			Admitted:             st.adm.admitted.Load(),
			RejectedCapacity:     st.adm.rejectedCapacity.Load(),
			RejectedQueueTimeout: st.adm.rejectedTimeout.Load(),
			Active:               st.adm.active(),
			Queued:               st.adm.queued(),
			CacheHits:            hits,
			CacheMisses:          misses,
			CacheEvictions:       st.engine.Evictions(),
			CacheLen:             st.engine.Len(),
		}
	}
	return out
}
