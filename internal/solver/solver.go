// Package solver is the scheduling-engine layer of RESPECT: a uniform
// Scheduler interface over every backend a request can be served by (RL
// pointer-network decoding, branch-and-bound exact search, classic
// heuristics, the compiler's partition), a named registry to enumerate
// and resolve them, and concurrent engines built on top — Portfolio races
// backends under one deadline and returns the cheapest deployable
// schedule (the members run in order on the caller's goroutine, and any
// not started within 1 ms of the race's start get goroutines of their
// own); Engine memoizes races by graph fingerprint (a single backend
// is an engine of one); Batch schedules many graphs through an Engine
// with a bounded worker pool.
//
// Every Scheduler returns deployment-ready schedules (pipeline-monotone,
// with all children of a node in one stage: repaired into that space by
// sched.PostProcess, or, the exact family, searched for inside it), so
// costs are directly comparable across backends and a Portfolio winner can
// be deployed without further processing. The race checks this promise on
// every member and fails the one that breaks it. Backends honor context
// cancellation: when the deadline expires mid-search, anytime backends
// (exact, exact-ilp-grade) return their incumbent rather than
// blocking. The paper's timing baselines, the full compiler flow and the
// generic MILP, are not backends: they are called where they are timed.
package solver

import (
	"context"

	"respect/internal/graph"
	"respect/internal/sched"
)

// Scheduler maps a DNN computational DAG onto an n-stage Edge TPU
// pipeline. Implementations must be safe for concurrent use — the
// Portfolio and Batch engines invoke one value from many goroutines —
// and must respect ctx: return promptly (with an incumbent schedule or an
// error) once ctx is cancelled or its deadline passes.
type Scheduler interface {
	// Name identifies the backend in the registry and in telemetry.
	Name() string
	// Schedule computes a deployment-ready schedule of g on numStages
	// pipeline stages.
	Schedule(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error)
}

// Info is optional metadata about how a schedule was obtained, reported
// by backends that can distinguish a full-effort result from a
// budget-truncated incumbent.
type Info struct {
	// Truncated reports the search ran out of budget (deadline,
	// cancellation, or state cap) and returned an incumbent.
	Truncated bool
	// OptimalityProven reports the result is provably optimal among the
	// schedules this service can return: the search space was exhausted
	// and no deployable schedule has a lower peak. The exact family proves
	// it over the deployable schedules themselves.
	OptimalityProven bool
}

// InfoScheduler is implemented by backends that report Info alongside the
// schedule. An Engine refuses to store truncated incumbents, and the CLI
// uses Info to caption results honestly.
type InfoScheduler interface {
	Scheduler
	ScheduleInfo(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, Info, error)
}

// ScheduleInfo runs b, forwarding metadata when b provides it. A plain
// backend makes no optimality claim and cannot say whether the deadline
// cut its search short, so a schedule it hands back after ctx is done is
// reported as truncated: this is the one rule that keeps results computed
// under a dead context out of every Engine.
func ScheduleInfo(ctx context.Context, b Scheduler, g *graph.Graph, numStages int) (sched.Schedule, Info, error) {
	if is, ok := b.(InfoScheduler); ok {
		return is.ScheduleInfo(ctx, g, numStages)
	}
	s, err := b.Schedule(ctx, g, numStages)
	return s, Info{Truncated: err == nil && ctx.Err() != nil}, err
}

// Func adapts a plain function to the Scheduler interface.
type Func struct {
	// BackendName is returned by Name.
	BackendName string
	// Fn is invoked by Schedule.
	Fn func(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error)
}

// NewFunc wraps fn as a named Scheduler.
func NewFunc(name string, fn func(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error)) Func {
	return Func{BackendName: name, Fn: fn}
}

// Name implements Scheduler.
func (f Func) Name() string { return f.BackendName }

// Schedule implements Scheduler.
func (f Func) Schedule(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
	return f.Fn(ctx, g, numStages)
}
