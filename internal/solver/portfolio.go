package solver

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"respect/internal/graph"
	"respect/internal/sched"
)

// Outcome is the per-backend telemetry of one portfolio run.
type Outcome struct {
	// Backend is the Scheduler's name.
	Backend string
	// Schedule and Cost are set when Err is nil and the schedule validated.
	Schedule sched.Schedule
	Cost     sched.Cost
	// Err is the backend's failure (including ctx cancellation when the
	// backend was cancelled as a loser before producing a schedule).
	Err error
	// Info is the backend's honesty metadata (truncation / optimality
	// proof) when it reports any; zero for plain backends.
	Info Info
	// Started is the backend's start offset from the start of the race's
	// first member, so member 0 of a race starts at 0. It includes any wait
	// behind the members run before it on the caller's goroutine (at most
	// escalateAfter unless a member before it ran that long inline) and a
	// spawned goroutine's scheduling delay. Together with Elapsed it places
	// the backend on a per-request timeline.
	Started time.Duration
	// Elapsed is the backend's wall-clock solve time.
	Elapsed time.Duration
	// Winner marks the backend whose schedule the portfolio returned.
	Winner bool
}

// PortfolioResult is the aggregate outcome of racing several backends.
type PortfolioResult struct {
	// Schedule is the cheapest deployable schedule found.
	Schedule sched.Schedule
	// Cost is Schedule's objective.
	Cost sched.Cost
	// Backend names the winner.
	Backend string
	// Truncated reports the returned schedule is a budget-cut incumbent:
	// the winning backend ran out of budget mid-search. A full-effort
	// winner is not truncated even when slower members were cut by the
	// deadline (their Outcomes record that). Honest callers must surface
	// this flag rather than presenting the schedule as full-effort.
	Truncated bool
	// Outcomes reports every raced backend, in input order.
	Outcomes []Outcome
}

// PortfolioOptions tunes the race.
type PortfolioOptions struct {
	// Patience bounds how long the portfolio keeps waiting for stragglers
	// after the first backend returns a valid schedule: once it elapses the
	// shared context is cancelled and anytime backends hand back their
	// incumbents. Zero waits for every backend (or the caller's deadline).
	Patience time.Duration
}

// Portfolio races the given backends on one scheduling instance under the
// caller's context and returns the best deployable schedule by deployed
// cost (ties break toward the earlier backend in the argument order).
// The backends run under a shared derived context, one after another on
// the caller's goroutine; a backend that has not started within
// escalateAfter (1 ms) of the race's start gets a goroutine of its own,
// and a lone backend is simply called (see race). When the race is
// decided the derived context is cancelled, so no goroutine outlives the
// call. Backends that error or return invalid schedules are excluded; the
// call fails only when no backend produced a valid schedule or the
// caller's context was cancelled outright.
func Portfolio(ctx context.Context, backends []Scheduler, g *graph.Graph, numStages int) (PortfolioResult, error) {
	return PortfolioOpt(ctx, backends, g, numStages, PortfolioOptions{})
}

// PanicError is the Outcome.Err of a backend that panicked in the middle
// of a solve.
type PanicError struct {
	Backend string
	Value   any // what the backend panicked with
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("solver: backend %q panicked: %v", e.Backend, e.Value)
}

// solve runs one race member and validates and prices what it returns.
// This is the one place the package's promise is checked: a schedule that
// is not pipeline-monotone or not deployable on the hardware (a backend
// that forgot the repair) becomes that backend's error, so it loses the
// race and is never served or stored on a cost no deployable schedule has.
//
// It is also the one place every member of every race, batch, periodic job
// and speculative warm passes through, on the caller's goroutine or on one
// the race escalated it to, so it is where a backend's panic is contained:
// the panic becomes that member's error, and a fault in one backend costs
// it the race, not the process every other request is being served by.
//
// start is when the solve began, for Elapsed; the race passes its own
// clock reading so that the first member's Started is exactly 0.
func solve(ctx context.Context, b Scheduler, g *graph.Graph, numStages int, start time.Time) (out Outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = Outcome{Backend: b.Name(), Elapsed: time.Since(start), Err: &PanicError{Backend: b.Name(), Value: r}}
		}
	}()
	s, info, err := ScheduleInfo(ctx, b, g, numStages)
	out = Outcome{Backend: b.Name(), Elapsed: time.Since(start), Err: err, Info: info}
	if err != nil {
		return out
	}
	if verr := s.Validate(g); verr != nil {
		out.Err = fmt.Errorf("solver: backend %q returned an invalid schedule: %w", b.Name(), verr)
	} else if !s.SameStageChildrenOK(g) {
		out.Err = fmt.Errorf("solver: backend %q returned a schedule that is not deployable: children of one node are split across stages", b.Name())
	} else {
		out.Schedule = s
		out.Cost = s.Evaluate(g)
	}
	return out
}

// checkStages refuses a stage count below 1.
func checkStages(numStages int) error {
	if numStages < 1 {
		return fmt.Errorf("solver: %d pipeline stages, want at least 1", numStages)
	}
	return nil
}

// PortfolioOpt is Portfolio with explicit options. A stage count below 1
// is refused before any backend starts, so every race, engine solve and
// batch item refuses it alike.
func PortfolioOpt(ctx context.Context, backends []Scheduler, g *graph.Graph, numStages int, opts PortfolioOptions) (PortfolioResult, error) {
	if len(backends) == 0 {
		return PortfolioResult{}, errors.New("solver: portfolio needs at least one backend")
	}
	if err := checkStages(numStages); err != nil {
		return PortfolioResult{}, err
	}
	res := PortfolioResult{Outcomes: make([]Outcome, len(backends))}
	race(ctx, backends, g, numStages, opts, res.Outcomes)

	best := -1
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		if o.Err != nil {
			continue
		}
		if best < 0 || o.Cost.Less(res.Outcomes[best].Cost) {
			best = i
		}
	}
	if best < 0 {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("solver: portfolio cancelled before any backend finished: %w", err)
		}
		return res, fmt.Errorf("solver: every portfolio backend failed (first: %w)", firstErr(res.Outcomes))
	}
	res.Outcomes[best].Winner = true
	res.Schedule = res.Outcomes[best].Schedule
	res.Cost = res.Outcomes[best].Cost
	res.Backend = res.Outcomes[best].Backend
	res.Truncated = res.Outcomes[best].Info.Truncated
	return res, nil
}

// escalateAfter is how long a race runs its members one after another on
// the caller's goroutine before every member not yet started gets a
// goroutine of its own. The members of a miss solve in microseconds, and
// starting a goroutine per member cost more than the solves (a CPU profile
// of a miss-only load put a fifth of the server's samples on those
// goroutines and their stack growth). 1 ms is 2 % of the tightest class
// budget (interactive, 50 ms), so an anytime member behind a slow one
// loses at most that much of its search before the deadline.
const escalateAfter = 1 * time.Millisecond

// race fills outs in input order and returns once every member has
// reported in. It runs the members in input order on the caller's
// goroutine, under a context derived from ctx. A timer armed at the start
// fires after escalateAfter; it then starts every member not yet started
// on a goroutine of its own, and the caller finishes the member it is
// running and waits for them. The trade: when every member finishes in
// under escalateAfter, the race takes the sum of their times instead of
// the longest plus goroutine start-up, and no member starts later than
// escalateAfter after the race began unless the members before it already
// ran that long inline.
//
// The first valid result, from the caller or from an escalated member,
// arms opts.Patience: when it elapses the derived context is cancelled,
// and anytime members hand back their incumbents while the others return
// the context's error.
//
// A race of one is a plain call of its member under ctx: with nothing to
// escalate or cancel, it needs no derived context, racer or timer.
func race(ctx context.Context, backends []Scheduler, g *graph.Graph, numStages int, opts PortfolioOptions, outs []Outcome) {
	if len(backends) == 1 {
		outs[0] = solve(ctx, backends[0], g, numStages, time.Now())
		return
	}
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &racer{ctx: raceCtx, cancel: cancel, backends: backends, g: g, numStages: numStages, patience: opts.Patience, outs: outs}
	r.start = time.Now()
	// The timer's callback is counted as a member would be, so the caller
	// waits for it unless it is stopped before it fires.
	r.wg.Add(1)
	escalation := time.AfterFunc(escalateAfter, r.escalate)
	start := r.start
	for i := r.claim(); i >= 0; i = r.claim() {
		r.run(i, start)
		start = time.Now()
	}
	if escalation.Stop() {
		r.wg.Done()
	}
	r.wg.Wait()
	if r.cut != nil {
		// Every member has reported in, so nothing arms it any more; a
		// callback that already fired only cancels raceCtx, as the
		// deferred cancel does.
		r.cut.Stop()
	}
}

// racer is the state one race shares between the caller and the members
// it escalates to goroutines of their own.
type racer struct {
	ctx       context.Context
	cancel    context.CancelFunc
	backends  []Scheduler
	g         *graph.Graph
	numStages int
	patience  time.Duration
	outs      []Outcome
	start     time.Time

	// mu hands members over between the caller and the escalation timer:
	// next only grows, each member is claimed exactly once, and an
	// escalated member is counted in wg before next passes it, so a caller
	// that finds next at the end never waits too early.
	mu       sync.Mutex
	next     int            // the first member not yet claimed
	finished int            // members that have reported in
	cut      *time.Timer    // patience, armed by the first valid result
	wg       sync.WaitGroup // escalated members and the escalation callback
}

// claim returns the next member for the caller to run inline, or -1 when
// every member has been claimed.
func (r *racer) claim() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next == len(r.backends) {
		return -1
	}
	r.next++
	return r.next - 1
}

// escalate is the escalation timer's callback: every member not yet
// claimed starts on a goroutine of its own.
func (r *racer) escalate() {
	defer r.wg.Done()
	r.mu.Lock()
	defer r.mu.Unlock()
	for ; r.next < len(r.backends); r.next++ {
		r.wg.Add(1)
		go func(i int) {
			defer r.wg.Done()
			r.run(i, time.Now())
		}(r.next)
	}
}

// run solves member i, which started at start, into its outcome slot and
// arms patience on the first valid result while members are still to
// report in.
func (r *racer) run(i int, start time.Time) {
	out := solve(r.ctx, r.backends[i], r.g, r.numStages, start)
	out.Started = start.Sub(r.start)
	r.outs[i] = out
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finished++
	if out.Err == nil && r.cut == nil && r.patience > 0 && r.finished < len(r.backends) {
		r.cut = time.AfterFunc(r.patience, r.cancel)
	}
}

func firstErr(outs []Outcome) error {
	for _, o := range outs {
		if o.Err != nil {
			return o.Err
		}
	}
	return errors.New("no error recorded")
}
