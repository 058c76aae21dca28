package solver

import "respect/internal/metrics"

// Instruments bundles the solver-layer metric families registered on one
// metrics.Registry: per-backend schedule-solve latency histograms,
// portfolio win/loss/truncation counters, and schedule-cache
// hit/miss/eviction counters. One Instruments is shared by every engine
// wired to the same registry (the serving layer creates one per Server);
// engines attach to it with Engine.Instrument and CacheSet.Instrument
// before serving traffic.
//
// Cache hit/miss/eviction counters are function-backed on each engine's
// own counters, so the exposition page can never disagree with the
// engines' Stats()/Evictions() telemetry.
type Instruments struct {
	scheduleSeconds *metrics.HistogramVec // engine, backend
	wins            *metrics.CounterVec   // engine, backend
	losses          *metrics.CounterVec   // engine, backend
	truncations     *metrics.CounterVec   // engine, backend
	cacheOps        *metrics.CounterVec   // cache, op (hit | miss | evict)
}

// NewInstruments registers the solver metric families on reg. Latency
// histograms use buckets (upper bounds in seconds; nil defaults to
// metrics.DefBuckets). Registering twice on one registry panics
// (duplicate metric names) — create one Instruments per registry.
func NewInstruments(reg *metrics.Registry, buckets []float64) *Instruments {
	return &Instruments{
		scheduleSeconds: reg.HistogramVec("respect_backend_schedule_duration_seconds",
			"Wall-clock solve latency of one backend on one scheduling instance, in seconds.",
			buckets, "engine", "backend"),
		wins: reg.CounterVec("respect_portfolio_wins_total",
			"Portfolio races won by this backend (its schedule was returned).",
			"engine", "backend"),
		losses: reg.CounterVec("respect_portfolio_losses_total",
			"Portfolio races this backend lost, errored or was cancelled in.",
			"engine", "backend"),
		truncations: reg.CounterVec("respect_portfolio_truncations_total",
			"Backend results that were budget-cut incumbents rather than full-effort schedules.",
			"engine", "backend"),
		cacheOps: reg.CounterVec("respect_schedule_cache_ops_total",
			"Schedule cache operations (op is hit, miss or evict) per cache.",
			"cache", "op"),
	}
}

// observeOutcomes records one portfolio race's per-backend telemetry for
// the named engine: a latency observation per raced backend, a win for
// the winner, a loss for everyone else, and a truncation for each
// budget-cut incumbent. Nil-safe so un-instrumented engines pay nothing.
func (ins *Instruments) observeOutcomes(engine string, outs []Outcome) {
	if ins == nil {
		return
	}
	for _, o := range outs {
		ins.scheduleSeconds.With(engine, o.Backend).Observe(o.Elapsed.Seconds())
		if o.Winner {
			ins.wins.With(engine, o.Backend).Inc()
		} else {
			ins.losses.With(engine, o.Backend).Inc()
		}
		if o.Info.Truncated {
			ins.truncations.With(engine, o.Backend).Inc()
		}
	}
}
