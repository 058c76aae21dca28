// Package rt adds a real-time periodic task mode to the scheduling
// service: clients register streams of work released every period with a
// relative deadline — the camera/inference pipelines Coral Edge TPUs are
// deployed against — instead of one-shot requests.
//
// Three pieces make up the subsystem:
//
//   - Admission is a schedulability test, not a queue-depth check. A
//     registration is accepted only if the stream set's total utilization
//     (Σ cost/period, scaled by the worker count) stays under the
//     policy's bound — 1.0 for EDF, the Liu & Layland bound
//     n·(2^(1/n)−1) for RM and FIFO — and a response-time analysis
//     confirms every stream meets its deadline under worst-case
//     interference. Costs are pinned per stream or fed live from
//     observed solve-latency percentiles via Config.Estimate.
//
//   - A release loop turns each registered stream into jobs: one job per
//     period, stamped with its absolute deadline. A release that finds
//     the stream's previous job still waiting supersedes it — the old
//     job is dropped and counted as a deadline miss, which bounds the
//     backlog to one pending job per stream under overload. Workers
//     likewise shed a job whose deadline has already passed instead of
//     executing it — stale output is worthless, and running overdue
//     jobs first is exactly EDF's overload failure mode.
//
//   - A pluggable queue discipline orders the released jobs for the
//     executor workers: FIFO (release order), RM (rate-monotonic,
//     shortest period first) or EDF (earliest absolute deadline first).
//     Execution is non-preemptive — a running job is never interrupted —
//     matching a real inference pipeline.
//
// Every completion records deadline misses and tardiness, so the serving
// layer can export miss-rate and tardiness metrics per stream, and the
// RL agents gain miss-rate minimization as a training objective.
package rt

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Policy names a queue discipline ordering released jobs for execution.
type Policy string

// The built-in queue disciplines.
const (
	// FIFO serves jobs in release order, ignoring deadlines and periods.
	FIFO Policy = "fifo"
	// RM is rate-monotonic: jobs of shorter-period streams are served
	// first (the classic static-priority discipline).
	RM Policy = "rm"
	// EDF serves the job with the earliest absolute deadline first (the
	// optimal single-processor dynamic-priority discipline).
	EDF Policy = "edf"
)

// ParsePolicy maps a policy name ("fifo", "rm", "edf") to its Policy.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case FIFO, RM, EDF:
		return Policy(s), nil
	}
	return "", fmt.Errorf("rt: unknown policy %q (have fifo, rm, edf)", s)
}

// LiuLayland returns the Liu & Layland rate-monotonic utilization bound
// n·(2^(1/n)−1) for n streams: a periodic task set with total utilization
// under this bound is schedulable by RM on one processor.
func LiuLayland(n int) float64 {
	if n < 1 {
		return 1
	}
	return float64(n) * (math.Pow(2, 1/float64(n)) - 1)
}

// DefaultBound returns the policy's default admission utilization bound
// for n streams: 1.0 for EDF (optimal), Liu & Layland for RM, and Liu &
// Layland for FIFO too — FIFO has no exact bound, so it borrows the
// conservative static-priority one.
func DefaultBound(p Policy, n int) float64 {
	if p == EDF {
		return 1
	}
	return LiuLayland(n)
}

// StreamSpec describes one periodic stream at registration time.
type StreamSpec struct {
	// Name identifies the stream; it must be unique within a Dispatcher
	// and is the stream label on the rt metric families.
	Name string
	// Period is the release interval. Required.
	Period time.Duration
	// Deadline is the relative deadline of each released job, measured
	// from its release. Zero defaults to Period; it must not exceed
	// Period (the constrained-deadline task model).
	Deadline time.Duration
	// Cost pins the per-job execution-time estimate used by the
	// schedulability test. Zero asks Config.Estimate at admission time,
	// which the serving layer feeds from observed solve-latency
	// percentiles.
	Cost time.Duration
	// Payload is opaque stream context handed back through Job; the
	// serving layer stores the resolved graph and request class here.
	Payload any
}

// Stream is one admitted periodic stream plus its live counters.
type Stream struct {
	StreamSpec

	cost atomic.Int64 // effective cost estimate, ns (atomic: read off-lock)
	next time.Time    // next release (owned by the release loop)

	releases    atomic.Uint64
	completions atomic.Uint64
	misses      atomic.Uint64
	drops       atomic.Uint64
}

// Cost returns the effective per-job cost estimate applied by the last
// admission test.
func (s *Stream) Cost() time.Duration { return time.Duration(s.cost.Load()) }

// Utilization returns the stream's processor share, cost/period.
func (s *Stream) Utilization() float64 {
	return float64(s.cost.Load()) / float64(s.Period)
}

// Releases returns the number of jobs released so far.
func (s *Stream) Releases() uint64 { return s.releases.Load() }

// Completions returns the number of jobs that finished executing.
func (s *Stream) Completions() uint64 { return s.completions.Load() }

// Misses returns the number of deadline misses: jobs that finished after
// their absolute deadline plus jobs dropped because a newer release
// superseded them.
func (s *Stream) Misses() uint64 { return s.misses.Load() }

// Drops returns the subset of Misses that never executed: releases
// superseded by a newer period, or jobs shed because their deadline had
// already passed when a worker picked them up.
func (s *Stream) Drops() uint64 { return s.drops.Load() }

// Job is one released unit of periodic work.
type Job struct {
	// Stream is the job's origin.
	Stream *Stream
	// Seq is the global release sequence number (FIFO order).
	Seq uint64
	// Release is when the job was released.
	Release time.Time
	// Deadline is the absolute deadline (Release + the stream's relative
	// deadline).
	Deadline time.Time
}

// JobResult reports one finished or dropped job to Config.OnComplete.
type JobResult struct {
	Job
	// Finish is when the job completed (or was dropped).
	Finish time.Time
	// Dropped marks a job that never executed: superseded by a newer
	// release, or shed because its deadline passed before it started.
	Dropped bool
	// Missed reports the job finished after its deadline (drops always
	// miss).
	Missed bool
	// Tardiness is max(0, Finish−Deadline): zero for on-time jobs, the
	// lateness for misses.
	Tardiness time.Duration
	// Err is the executor's failure, if any. Failed jobs still complete
	// for accounting purposes.
	Err error
}

// Config configures a Dispatcher.
type Config struct {
	// Policy is the queue discipline (default EDF).
	Policy Policy
	// UtilBound overrides the admission utilization bound; zero selects
	// the policy default (see DefaultBound) plus the response-time
	// analysis. Setting it is an operator override: only the utilization
	// test applies, and values above Workers admit overload on purpose.
	UtilBound float64
	// Workers sizes the executor pool (default 1 — one pipeline).
	Workers int
	// Run executes one job; required. The context is cancelled when the
	// dispatcher stops.
	Run func(ctx context.Context, job Job) error
	// Estimate returns the current per-job cost estimate for a stream
	// whose spec does not pin one. The serving layer feeds observed
	// solve-latency percentiles here; nil means every spec must pin Cost.
	Estimate func(s *Stream) time.Duration
	// OnComplete, when set, observes every finished or dropped job (off
	// the dispatcher lock; keep it cheap — the serving layer records
	// tardiness histograms here).
	OnComplete func(res JobResult)
	// Clock supplies releases, deadline checks and tardiness stamps
	// (default: the wall clock). Tests inject a FakeClock to drive the
	// dispatcher deterministically.
	Clock Clock
	// Logf, when set, receives dispatcher log lines.
	Logf func(format string, args ...any)
}

// ErrNotSchedulable wraps every admission rejection, so callers can map
// it to a distinct HTTP status.
var ErrNotSchedulable = errors.New("rt: stream set not schedulable")

// ErrStreamExists wraps a Register rejection caused by a duplicate
// stream name.
var ErrStreamExists = errors.New("rt: stream already registered")

// Dispatcher owns the registered stream set, the release loop and the
// executor workers. Construct with New; Register/Remove are safe at any
// time, including while running.
type Dispatcher struct {
	cfg Config

	mu      sync.Mutex
	cond    sync.Cond
	streams map[string]*Stream
	queue   jobHeap
	pending map[string]*queuedJob // stream name -> released, not yet started
	seq     uint64
	running bool
	stopped bool
	recalc  chan struct{}
}

// New validates cfg and returns a ready (not yet started) Dispatcher.
func New(cfg Config) (*Dispatcher, error) {
	if cfg.Policy == "" {
		cfg.Policy = EDF
	}
	if _, err := ParsePolicy(string(cfg.Policy)); err != nil {
		return nil, err
	}
	if cfg.UtilBound < 0 {
		return nil, fmt.Errorf("rt: utilization bound %v must not be negative", cfg.UtilBound)
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("rt: workers %d must be at least 1", cfg.Workers)
	}
	if cfg.Run == nil {
		return nil, errors.New("rt: Config.Run is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = wallClock{}
	}
	d := &Dispatcher{
		cfg:     cfg,
		streams: make(map[string]*Stream),
		pending: make(map[string]*queuedJob),
		recalc:  make(chan struct{}, 1),
	}
	d.queue.policy = cfg.Policy
	d.cond.L = &d.mu
	return d, nil
}

// Policy returns the dispatcher's queue discipline.
func (d *Dispatcher) Policy() Policy { return d.cfg.Policy }

// bound returns the admission utilization bound for n streams, scaled by
// the worker count.
func (d *Dispatcher) bound(n int) float64 {
	b := d.cfg.UtilBound
	if b == 0 {
		b = DefaultBound(d.cfg.Policy, n)
	}
	return b * float64(d.cfg.Workers)
}

// effectiveCost resolves one stream's cost estimate: the pinned spec cost
// when set, else the live estimate.
func (d *Dispatcher) effectiveCost(s *Stream) (time.Duration, error) {
	if s.StreamSpec.Cost > 0 {
		return s.StreamSpec.Cost, nil
	}
	if d.cfg.Estimate != nil {
		if c := d.cfg.Estimate(s); c > 0 {
			return c, nil
		}
	}
	return 0, fmt.Errorf("rt: stream %q has no cost estimate (pin Cost or configure Estimate)", s.Name)
}

// Register admits spec after a schedulability test over the would-be
// stream set (existing streams re-estimated with fresh costs) and starts
// releasing its jobs. Rejections wrap ErrNotSchedulable when the set
// fails the test and plain errors for invalid specs.
func (d *Dispatcher) Register(spec StreamSpec) (*Stream, error) {
	if spec.Name == "" {
		return nil, errors.New("rt: stream name is required")
	}
	if spec.Period <= 0 {
		return nil, fmt.Errorf("rt: stream %q: period %v must be positive", spec.Name, spec.Period)
	}
	if spec.Deadline == 0 {
		spec.Deadline = spec.Period
	}
	if spec.Deadline < 0 || spec.Deadline > spec.Period {
		return nil, fmt.Errorf("rt: stream %q: deadline %v outside (0, period %v]", spec.Name, spec.Deadline, spec.Period)
	}
	if spec.Cost < 0 {
		return nil, fmt.Errorf("rt: stream %q: cost %v must not be negative", spec.Name, spec.Cost)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.streams[spec.Name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrStreamExists, spec.Name)
	}

	cand := &Stream{StreamSpec: spec}
	set := make([]*Stream, 0, len(d.streams)+1)
	for _, s := range d.streams {
		set = append(set, s)
	}
	set = append(set, cand)
	// Refresh every cost: estimates sharpen as the histograms fill, and
	// the admission decision should reflect what the set costs now.
	for _, s := range set {
		c, err := d.effectiveCost(s)
		if err != nil {
			return nil, err
		}
		if c > s.Deadline {
			return nil, fmt.Errorf("%w: stream %q cost %v exceeds its deadline %v",
				ErrNotSchedulable, s.Name, c, s.Deadline)
		}
		s.cost.Store(int64(c))
	}
	if err := d.schedulable(set); err != nil {
		return nil, err
	}

	d.streams[spec.Name] = cand
	if d.running {
		cand.next = d.cfg.Clock.Now()
		d.wakeReleaseLoop()
	}
	d.logf("rt: registered stream %q period=%v deadline=%v cost=%v (util %.3f, total %.3f)",
		spec.Name, spec.Period, spec.Deadline, cand.Cost(), cand.Utilization(), totalUtil(set))
	return cand, nil
}

// schedulable runs the admission test on the candidate set: utilization
// bound first, then response-time analysis.
func (d *Dispatcher) schedulable(set []*Stream) error {
	u := totalUtil(set)
	if bound := d.bound(len(set)); u > bound {
		return fmt.Errorf("%w: total utilization %.3f exceeds the %s bound %.3f for %d streams",
			ErrNotSchedulable, u, d.cfg.Policy, bound, len(set))
	}
	// An explicit UtilBound is an operator override — it may admit sets
	// the analysis would reject (including deliberate overload), so the
	// utilization test alone governs. RTA also only models a single
	// executor; with more workers the scaled bound is the admission test.
	if d.cfg.UtilBound != 0 || d.cfg.Workers > 1 {
		return nil
	}
	return responseTimeAnalysis(d.cfg.Policy, set)
}

// totalUtil sums cost/period over the set.
func totalUtil(set []*Stream) float64 {
	u := 0.0
	for _, s := range set {
		u += s.Utilization()
	}
	return u
}

// responseTimeAnalysis is the single-worker deadline check behind
// admission. For EDF it is the density test Σ cost/deadline ≤ 1 (a
// sufficient condition for constrained deadlines). For RM it is the
// classic fixpoint iteration R = C + Σ_hp ceil(R/T_j)·C_j plus a
// non-preemptive blocking term (the largest lower-priority cost), since
// a running job is never interrupted. FIFO has no priority structure, so
// every other stream counts as interference — deliberately conservative.
func responseTimeAnalysis(policy Policy, set []*Stream) error {
	switch policy {
	case EDF:
		density := 0.0
		for _, s := range set {
			density += float64(s.Cost()) / float64(s.Deadline)
		}
		if density > 1 {
			return fmt.Errorf("%w: EDF density %.3f exceeds 1 (Σ cost/deadline)", ErrNotSchedulable, density)
		}
		return nil
	case RM:
		byPeriod := append([]*Stream(nil), set...)
		sort.Slice(byPeriod, func(i, j int) bool { return byPeriod[i].Period < byPeriod[j].Period })
		for i, s := range byPeriod {
			// Non-preemptive blocking: one lower-priority job may already
			// be running when s releases.
			var blocking time.Duration
			for _, lp := range byPeriod[i+1:] {
				if c := lp.Cost(); c > blocking {
					blocking = c
				}
			}
			if r, ok := fixpointResponse(s, byPeriod[:i], blocking); !ok {
				return fmt.Errorf("%w: stream %q worst-case response %v exceeds its deadline %v under rm",
					ErrNotSchedulable, s.Name, r, s.Deadline)
			}
		}
		return nil
	default: // FIFO
		for i, s := range set {
			others := make([]*Stream, 0, len(set)-1)
			for j, o := range set {
				if j != i {
					others = append(others, o)
				}
			}
			if r, ok := fixpointResponse(s, others, 0); !ok {
				return fmt.Errorf("%w: stream %q worst-case response %v exceeds its deadline %v under fifo",
					ErrNotSchedulable, s.Name, r, s.Deadline)
			}
		}
		return nil
	}
}

// fixpointResponse iterates R = blocking + C + Σ ceil(R/T_j)·C_j over the
// interfering streams until it converges or exceeds s's deadline.
func fixpointResponse(s *Stream, interfering []*Stream, blocking time.Duration) (time.Duration, bool) {
	r := blocking + s.Cost()
	for iter := 0; iter < 64; iter++ {
		next := blocking + s.Cost()
		for _, j := range interfering {
			n := (r + j.Period - 1) / j.Period // ceil(r / T_j)
			next += time.Duration(n) * j.Cost()
		}
		if next > s.Deadline {
			return next, false
		}
		if next == r {
			return r, true
		}
		r = next
	}
	return r, r <= s.Deadline
}

// Remove unregisters a stream, cancelling its pending release. It reports
// whether the stream existed. Already-running jobs finish normally.
func (d *Dispatcher) Remove(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.streams[name]
	if !ok {
		return false
	}
	delete(d.streams, name)
	if p := d.pending[name]; p != nil {
		p.cancelled = true
		delete(d.pending, name)
	}
	if d.running {
		d.wakeReleaseLoop()
	}
	d.logf("rt: removed stream %q", s.Name)
	return true
}

// wakeReleaseLoop nudges the release loop to recompute its next wake-up;
// callers hold d.mu.
func (d *Dispatcher) wakeReleaseLoop() {
	select {
	case d.recalc <- struct{}{}:
	default:
	}
}

// Start launches the release loop and the executor workers under ctx and
// returns an idempotent stop function that cancels and awaits them all —
// after stop returns, no release or job goroutine is left running.
// Starting an already-running dispatcher returns an error.
func (d *Dispatcher) Start(ctx context.Context) (stop func(), err error) {
	d.mu.Lock()
	if d.running {
		d.mu.Unlock()
		return nil, errors.New("rt: dispatcher already running")
	}
	d.running = true
	d.stopped = false
	now := d.cfg.Clock.Now()
	for _, s := range d.streams {
		s.next = now
	}
	d.mu.Unlock()

	rctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.releaseLoop(rctx)
	}()
	for i := 0; i < d.cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.worker(rctx)
		}()
	}
	wg.Add(1)
	go func() {
		// The stop watcher: workers parked in cond.Wait cannot see a
		// context, so cancellation is translated into the stopped flag
		// plus a broadcast.
		defer wg.Done()
		<-rctx.Done()
		d.mu.Lock()
		d.stopped = true
		d.mu.Unlock()
		d.cond.Broadcast()
	}()

	var once sync.Once
	return func() {
		once.Do(func() {
			cancel()
			wg.Wait()
			d.mu.Lock()
			d.running = false
			d.queue.jobs = nil
			d.pending = make(map[string]*queuedJob)
			d.mu.Unlock()
		})
	}, nil
}

// releaseLoop releases one job per stream per period, sleeping until the
// earliest next release and waking early on register/remove.
func (d *Dispatcher) releaseLoop(ctx context.Context) {
	timer := d.cfg.Clock.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		var dropped []JobResult
		d.mu.Lock()
		now := d.cfg.Clock.Now()
		// Release in sorted-name order so coincident releases get
		// deterministic sequence numbers: seq breaks every heap tie, so
		// map iteration order must not leak into FIFO (or tied RM/EDF)
		// dispatch order.
		byName := make([]*Stream, 0, len(d.streams))
		for _, s := range d.streams {
			byName = append(byName, s)
		}
		sort.Slice(byName, func(i, j int) bool { return byName[i].Name < byName[j].Name })
		var next time.Time
		for _, s := range byName {
			for !s.next.After(now) {
				if res, drop := d.releaseLocked(s, s.next); drop {
					dropped = append(dropped, res)
				}
				s.next = s.next.Add(s.Period)
			}
			if next.IsZero() || s.next.Before(next) {
				next = s.next
			}
		}
		d.mu.Unlock()
		for _, res := range dropped {
			d.complete(res)
		}

		if next.IsZero() {
			// No streams yet: wait for a registration or shutdown.
			select {
			case <-ctx.Done():
				return
			case <-d.recalc:
				continue
			}
		}
		timer.Reset(next)
		select {
		case <-ctx.Done():
			return
		case <-d.recalc:
		case <-timer.C():
		}
	}
}

// releaseLocked creates the job for one period of s, superseding a still
// pending predecessor (returned as a dropped JobResult for the caller to
// report off-lock). Callers hold d.mu.
func (d *Dispatcher) releaseLocked(s *Stream, release time.Time) (droppedRes JobResult, dropped bool) {
	d.seq++
	j := &queuedJob{Job: Job{
		Stream:   s,
		Seq:      d.seq,
		Release:  release,
		Deadline: release.Add(s.Deadline),
	}}
	s.releases.Add(1)
	if old := d.pending[s.Name]; old != nil {
		// The previous release never started and its successor is here;
		// under the constrained-deadline model its deadline has passed,
		// so dropping it is the honest miss accounting (and bounds the
		// backlog to one pending job per stream under overload).
		old.cancelled = true
		s.drops.Add(1)
		s.misses.Add(1)
		now := d.cfg.Clock.Now()
		tard := now.Sub(old.Deadline)
		if tard < 0 {
			tard = 0
		}
		droppedRes = JobResult{Job: old.Job, Finish: now, Dropped: true, Missed: true, Tardiness: tard}
		dropped = true
	}
	d.pending[s.Name] = j
	heap.Push(&d.queue, j)
	d.cond.Signal()
	return droppedRes, dropped
}

// worker executes queued jobs in policy order until the dispatcher stops.
func (d *Dispatcher) worker(ctx context.Context) {
	for {
		d.mu.Lock()
		for len(d.queue.jobs) == 0 && !d.stopped {
			d.cond.Wait()
		}
		if d.stopped {
			d.mu.Unlock()
			return
		}
		j := heap.Pop(&d.queue).(*queuedJob)
		if j.cancelled {
			d.mu.Unlock()
			continue
		}
		if d.pending[j.Stream.Name] == j {
			delete(d.pending, j.Stream.Name)
		}
		d.mu.Unlock()

		if now := d.cfg.Clock.Now(); !now.Before(j.Deadline) {
			// The job is already past its deadline: shed it instead of
			// burning the worker on worthless output (a stale camera
			// frame). Without this, EDF under overload dominoes — the
			// most-overdue job always has the earliest deadline.
			s := j.Stream
			s.drops.Add(1)
			s.misses.Add(1)
			d.complete(JobResult{Job: j.Job, Finish: now, Dropped: true, Missed: true, Tardiness: now.Sub(j.Deadline)})
			continue
		}

		err := d.cfg.Run(ctx, j.Job)
		finish := d.cfg.Clock.Now()
		tard := finish.Sub(j.Deadline)
		missed := tard > 0
		if tard < 0 {
			tard = 0
		}
		s := j.Stream
		s.completions.Add(1)
		if missed {
			s.misses.Add(1)
		}
		d.complete(JobResult{Job: j.Job, Finish: finish, Missed: missed, Tardiness: tard, Err: err})
	}
}

// complete forwards one job result to the OnComplete observer.
func (d *Dispatcher) complete(res JobResult) {
	if d.cfg.OnComplete != nil {
		d.cfg.OnComplete(res)
	}
	if res.Err != nil {
		d.logf("rt: job %s/%d failed: %v", res.Stream.Name, res.Seq, res.Err)
	}
}

// logf forwards to the configured logger, if any.
func (d *Dispatcher) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// StreamStats is one stream's point-in-time snapshot.
type StreamStats struct {
	// Name is the stream's registration name.
	Name string `json:"name"`
	// PeriodMS / DeadlineMS / CostMS echo the admitted parameters
	// (milliseconds; cost is the last admission estimate).
	PeriodMS   float64 `json:"period_ms"`
	DeadlineMS float64 `json:"deadline_ms"`
	CostMS     float64 `json:"cost_ms"`
	// Utilization is cost/period.
	Utilization float64 `json:"utilization"`
	// Releases / Completions / Misses / Drops are the live counters
	// (drops are the subset of misses that never started).
	Releases    uint64 `json:"releases"`
	Completions uint64 `json:"completions"`
	Misses      uint64 `json:"misses"`
	Drops       uint64 `json:"drops"`
}

// Stats is a point-in-time snapshot of the whole dispatcher.
type Stats struct {
	// Policy is the queue discipline in force.
	Policy Policy `json:"policy"`
	// UtilBound is the admission bound applied to the current stream
	// count (already scaled by workers).
	UtilBound float64 `json:"util_bound"`
	// Utilization is the admitted set's total cost/period share.
	Utilization float64 `json:"utilization"`
	// Queued counts jobs released but not yet started.
	Queued int `json:"queued"`
	// Releases / Completions / Misses / Drops aggregate the per-stream
	// counters.
	Releases    uint64 `json:"releases"`
	Completions uint64 `json:"completions"`
	Misses      uint64 `json:"misses"`
	Drops       uint64 `json:"drops"`
	// Streams lists every admitted stream, sorted by name.
	Streams []StreamStats `json:"streams"`
}

// Stats snapshots the dispatcher.
func (d *Dispatcher) Stats() Stats {
	d.mu.Lock()
	streams := make([]*Stream, 0, len(d.streams))
	for _, s := range d.streams {
		streams = append(streams, s)
	}
	queued := len(d.pending)
	n := len(d.streams)
	d.mu.Unlock()

	sort.Slice(streams, func(i, j int) bool { return streams[i].Name < streams[j].Name })
	out := Stats{Policy: d.cfg.Policy, UtilBound: d.bound(n), Queued: queued}
	for _, s := range streams {
		ss := StreamStats{
			Name:        s.Name,
			PeriodMS:    float64(s.Period) / float64(time.Millisecond),
			DeadlineMS:  float64(s.Deadline) / float64(time.Millisecond),
			CostMS:      float64(s.Cost()) / float64(time.Millisecond),
			Utilization: s.Utilization(),
			Releases:    s.Releases(),
			Completions: s.Completions(),
			Misses:      s.Misses(),
			Drops:       s.Drops(),
		}
		out.Utilization += ss.Utilization
		out.Releases += ss.Releases
		out.Completions += ss.Completions
		out.Misses += ss.Misses
		out.Drops += ss.Drops
		out.Streams = append(out.Streams, ss)
	}
	return out
}

// Queued counts jobs released but not yet started.
func (d *Dispatcher) Queued() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pending)
}

// queuedJob is a Job on the dispatch heap; cancelled jobs are skipped
// lazily when popped.
type queuedJob struct {
	Job
	cancelled bool
}

// jobHeap orders queued jobs by the dispatcher policy: FIFO by release
// sequence, RM by stream period, EDF by absolute deadline (sequence
// breaking ties everywhere, for determinism).
type jobHeap struct {
	policy Policy
	jobs   []*queuedJob
}

// Len implements heap.Interface.
func (h *jobHeap) Len() int { return len(h.jobs) }

// Less implements heap.Interface with the policy ordering.
func (h *jobHeap) Less(i, j int) bool {
	a, b := h.jobs[i], h.jobs[j]
	switch h.policy {
	case RM:
		if a.Stream.Period != b.Stream.Period {
			return a.Stream.Period < b.Stream.Period
		}
	case EDF:
		if !a.Deadline.Equal(b.Deadline) {
			return a.Deadline.Before(b.Deadline)
		}
	}
	return a.Seq < b.Seq
}

// Swap implements heap.Interface.
func (h *jobHeap) Swap(i, j int) { h.jobs[i], h.jobs[j] = h.jobs[j], h.jobs[i] }

// Push implements heap.Interface.
func (h *jobHeap) Push(x any) { h.jobs = append(h.jobs, x.(*queuedJob)) }

// Pop implements heap.Interface.
func (h *jobHeap) Pop() any {
	n := len(h.jobs)
	j := h.jobs[n-1]
	h.jobs[n-1] = nil
	h.jobs = h.jobs[:n-1]
	return j
}
