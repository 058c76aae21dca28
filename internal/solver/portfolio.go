package solver

import (
	"context"
	"errors"
	"fmt"
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
	// Started is the backend goroutine's start offset from the beginning
	// of the race (scheduling delay; normally microseconds). Together with
	// Elapsed it places the backend on a per-request timeline.
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
// Every backend runs in its own goroutine against a shared derived
// context; when the race is decided the derived context is cancelled, so
// no goroutine outlives the call. Backends that error or return invalid
// schedules are excluded; the call fails only when no backend produced a
// valid schedule or the caller's context was cancelled outright.
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
// and speculative warm passes through, on a goroutine of this package's
// making as often as not, so it is where a backend's panic is contained:
// the panic becomes that member's error, and a fault in one backend costs
// it the race, not the process every other request is being served by.
func solve(ctx context.Context, b Scheduler, g *graph.Graph, numStages int) (out Outcome) {
	start := time.Now()
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

// PortfolioOpt is Portfolio with explicit options. A race of one runs on
// the caller's goroutine under the caller's context: there is nobody to
// cancel and no patience to wait out. A stage count below 1 is refused
// before any backend starts, so every race, engine solve and batch item
// refuses it alike.
func PortfolioOpt(ctx context.Context, backends []Scheduler, g *graph.Graph, numStages int, opts PortfolioOptions) (PortfolioResult, error) {
	if len(backends) == 0 {
		return PortfolioResult{}, errors.New("solver: portfolio needs at least one backend")
	}
	if err := checkStages(numStages); err != nil {
		return PortfolioResult{}, err
	}
	res := PortfolioResult{Outcomes: make([]Outcome, len(backends))}
	if len(backends) == 1 {
		res.Outcomes[0] = solve(ctx, backends[0], g, numStages)
	} else {
		race(ctx, backends, g, numStages, opts, res.Outcomes)
	}

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

// race runs every backend in its own goroutine against a shared derived
// context and fills outs in input order; it returns once all have
// reported in.
func race(ctx context.Context, backends []Scheduler, g *graph.Graph, numStages int, opts PortfolioOptions, outs []Outcome) {
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	type indexed struct {
		i   int
		out Outcome
	}
	results := make(chan indexed, len(backends))
	raceStart := time.Now()
	for i, b := range backends {
		go func(i int, b Scheduler) {
			started := time.Since(raceStart)
			out := solve(raceCtx, b, g, numStages)
			out.Started = started
			results <- indexed{i, out}
		}(i, b)
	}

	var patience <-chan time.Time
	for done := 0; done < len(backends); {
		select {
		case r := <-results:
			done++
			outs[r.i] = r.out
			if r.out.Err == nil && patience == nil && opts.Patience > 0 {
				patience = time.After(opts.Patience)
			}
		case <-patience:
			// The stragglers lost; reclaim their goroutines. Anytime
			// backends return incumbents, others return ctx.Canceled —
			// either way every goroutine reports in and we keep draining.
			cancel()
			patience = nil
		}
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
