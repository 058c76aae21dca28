package serve

import (
	"context"
	"time"

	"respect/internal/online"
	"respect/internal/solver"
)

// admit waits for one of the class's admission slots, for at most one
// class budget. It is the only caller of acquire, so every admission
// decision — one-shot, batch or periodic — has its wait measured once and
// observed once on the queue-wait histogram. A free slot is taken
// without building the budget's timer; only a request that has to queue
// gets one. On success the caller must call release exactly once when
// its work finishes.
func (s *Server) admit(ctx context.Context, class Class, st *classState) (release func(), wait time.Duration, err error) {
	start := time.Now()
	release, ok := st.adm.tryAcquire()
	if !ok {
		admCtx, cancel := context.WithTimeout(ctx, st.policy.Budget)
		release, err = st.adm.acquire(admCtx)
		cancel()
	}
	wait = time.Since(start)
	s.queueSeconds.With(string(class)).Observe(wait.Seconds())
	return release, wait, err
}

// ran is what one admitted solve measured.
type ran struct {
	res solver.PortfolioResult
	// hit reports the class memo served the result; specHit that the
	// entry was one the speculative warmer stored ahead of demand.
	hit, specHit bool
	// queueWait is the admission wait, solve the window from admission to
	// the result (memo lookup plus the race when it missed).
	queueWait, solve time.Duration
	// sample is this solve as the learning loop records it; only set when
	// the loop is on.
	sample online.Sample
}

// run is the admitted solve path every caller shares, so what a solve
// observes depends on its result and never on who asked: admit, then
// solve under a fresh class budget through the class engine — its memo,
// or, when the request overrode the portfolio, its Race, which bypasses
// the memo — then attribute a speculative hit. The graph is built from in
// only for a race: a miss, or the pinned portfolio; and for the learning
// loop's sample. An admission failure comes back as
// errOverCapacity or errQueueTimeout.
func (s *Server) run(ctx context.Context, class Class, st *classState, in solver.Instance, numStages int, override []solver.Scheduler) (ran, error) {
	release, wait, err := s.admit(ctx, class, st)
	out := ran{queueWait: wait}
	if err != nil {
		return out, err
	}
	defer release()

	ctx, cancel := context.WithTimeout(ctx, st.policy.Budget)
	defer cancel()
	start := time.Now()
	if override != nil {
		out.res, err = st.engine.Race(ctx, override, in.Graph(), numStages)
	} else {
		out.res, out.hit, err = st.engine.Run(ctx, in, numStages)
	}
	out.solve = time.Since(start)
	if err != nil {
		return out, err
	}
	if out.hit && st.spec != nil {
		out.specHit = st.spec.AttributeHit(in.Fingerprint(), numStages)
	}
	if s.onlineMgr != nil {
		out.sample = online.Sample{
			Class:    string(class),
			Graph:    in.Graph(),
			Stages:   numStages,
			Backend:  out.res.Backend,
			Schedule: out.res.Schedule,
			Cost:     out.res.Cost,
			Latency:  out.solve,
			CacheHit: out.hit,
		}
	}
	return out, nil
}
