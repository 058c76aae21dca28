package serve

import (
	"context"
	"sort"
	"sync"
	"time"

	"respect/internal/online"
	"respect/internal/ptrnet"
	"respect/internal/rt"
	"respect/internal/solver"
)

// OnlineConfig enables and tunes the online learning loop: every solved
// request feeds a class-partitioned replay buffer, a background trainer
// runs policy-gradient rounds over it, and candidates that beat the
// serving incumbent by a margin on a held-out slice are hot-reloaded
// into the class portfolios under the rl-online-<class> backend names.
// Zero values select the online package defaults.
type OnlineConfig struct {
	// Enabled turns the loop on. Off, the serving path records nothing
	// and no online backends are registered.
	Enabled bool
	// Agent seeds every class's incumbent (nil: a fresh model per class).
	Agent *ptrnet.Model
	// Interval is the background training-round period (default 30s).
	Interval time.Duration
	// Margin is the relative held-out improvement a candidate must show
	// over the incumbent to be promoted (default 0.02).
	Margin float64
	// BufferCap is the per-class replay-ring capacity (default 4096).
	BufferCap int
	// MinSamples is the per-class floor below which a training round is
	// skipped (default 64).
	MinSamples int
	// BatchSize is the minibatch size per gradient step (default 8).
	BatchSize int
	// Steps is the number of gradient steps per round (default 40).
	Steps int
	// Seed drives every RNG in the loop, making rounds replayable.
	Seed int64
}

// newOnlineManager builds the learning-loop manager for cfg and returns
// the class table with each class's online backend appended to its
// portfolio. Called by New before class policies are validated: the
// manager registers the rl-online-<class> backends (via Replace) so the
// appended names resolve.
func newOnlineManager(cfg Config) (*online.Manager, map[Class]ClassPolicy, error) {
	oc := cfg.Online
	classNames := make([]string, 0, len(cfg.Classes))
	for class := range cfg.Classes {
		classNames = append(classNames, string(class))
	}
	sort.Strings(classNames)
	mgr, err := online.New(online.Config{
		Registry:   solver.Default(),
		Agent:      oc.Agent,
		Classes:    classNames,
		Interval:   oc.Interval,
		Margin:     oc.Margin,
		BufferCap:  oc.BufferCap,
		MinSamples: oc.MinSamples,
		BatchSize:  oc.BatchSize,
		Steps:      oc.Steps,
		Seed:       oc.Seed,
		Logf:       cfg.Logf,
	})
	if err != nil {
		return nil, nil, err
	}
	// Promoted agents serve demand traffic by racing in their class's
	// portfolio: the race keeps them honest (a worse schedule never wins)
	// while a better one takes the request.
	classes := make(map[Class]ClassPolicy, len(cfg.Classes))
	for class, policy := range cfg.Classes {
		policy.Backends = append(append([]string(nil), policy.Backends...), online.BackendName(string(class)))
		classes[class] = policy
	}
	return mgr, classes, nil
}

// initOnlineMetrics registers the learning-loop metric families,
// function-backed on the manager's counters so /metrics and /v1/stats
// always reconcile. Called by New after initMetrics; a no-op when the
// loop is off.
func (s *Server) initOnlineMetrics() {
	mgr := s.onlineMgr
	if mgr == nil {
		return
	}
	samples := s.reg.CounterVec("respect_online_samples_total",
		"Solved requests recorded into the online replay buffer, per class.", "class")
	promotions := s.reg.CounterVec("respect_online_promotions_total",
		"Shadow-evaluated candidate outcomes per class (result is promoted or rejected).",
		"class", "result")
	gap := s.reg.GaugeVec("respect_online_shadow_gap",
		"Last shadow-evaluation gap per class: (incumbent - candidate) / incumbent held-out cost.",
		"class")
	for _, class := range mgr.Classes() {
		class := class
		samples.Func(func() float64 { return float64(mgr.Samples(class)) }, class)
		promotions.Func(func() float64 { return float64(mgr.Promotions(class)) }, class, "promoted")
		promotions.Func(func() float64 { return float64(mgr.Rejections(class)) }, class, "rejected")
		gap.Func(func() float64 { return mgr.ShadowGap(class) }, class)
	}
	s.reg.CounterFunc("respect_online_train_rounds_total",
		"Completed online training rounds (at least one class trained).",
		func() float64 { return float64(mgr.TrainRounds()) })
}

// runOnline starts the background training loop and returns an
// idempotent stop that cancels and awaits it; Run calls it so no
// training round outlives the service.
func (s *Server) runOnline(ctx context.Context) (stop func()) {
	if s.onlineMgr == nil {
		return func() {}
	}
	octx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.onlineMgr.Run(octx)
	}()
	return func() {
		cancel()
		<-done
	}
}

// rtSolves parks periodic jobs' samples, keyed by release sequence,
// between the executor (which knows the schedule) and the dispatcher's
// OnComplete (which knows the deadline outcome); the zero value is ready
// to use.
type rtSolves struct {
	mu sync.Mutex
	m  map[uint64]online.Sample
}

// put parks one job's sample.
func (r *rtSolves) put(seq uint64, v online.Sample) {
	r.mu.Lock()
	if r.m == nil {
		r.m = make(map[uint64]online.Sample)
	}
	r.m[seq] = v
	r.mu.Unlock()
}

// take removes and returns the parked sample for seq, if any.
func (r *rtSolves) take(seq uint64) (online.Sample, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.m[seq]
	if ok {
		delete(r.m, seq)
	}
	return v, ok
}

// recordRTOutcome joins a completed periodic job with its parked sample
// and records it with its deadline outcome. Dropped jobs never solved, so
// they have nothing parked and record nothing.
func (s *Server) recordRTOutcome(res rt.JobResult) {
	if s.onlineMgr == nil {
		return
	}
	v, ok := s.rtSolves.take(res.Seq)
	if !ok {
		return
	}
	v.Periodic, v.DeadlineMiss = true, res.Missed
	s.onlineMgr.Record(v)
}
