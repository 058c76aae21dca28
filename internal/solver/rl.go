package solver

import (
	"context"
	"fmt"

	"respect/internal/embed"
	"respect/internal/graph"
	"respect/internal/ptrnet"
	"respect/internal/rl"
	"respect/internal/sched"
)

// RL backends are model-bound: they wrap a trained pointer network, so
// they cannot be registered at init time. Whoever loads or trains an
// agent constructs them here and registers them (see Registry.Replace,
// which keeps re-loading an agent idempotent).

// Pointer decoding points at the graph's sibling classes and is quadratic
// in their count (a millisecond or two on ResNet50's 77, tens of
// milliseconds on a chain of several hundred nodes, where every node is a
// class), so every decode mode checks ctx at each step and a cancelled
// backend returns ctx's error: a portfolio race that has its winner is not
// held until the decode ends.

// RL returns the greedy pointer-decode backend ("rl"): sibling-class
// quotient, embedding, greedy decode over the classes, ρ stage mapping,
// expansion to the nodes — the paper's headline inference path.
func RL(m *ptrnet.Model, ecfg embed.Config) Scheduler {
	return NewFunc("rl", func(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
		return rl.ScheduleCtx(ctx, m, ecfg, g, numStages)
	})
}

// RLSampled returns the best-of-K stochastic decode backend
// ("rl-sampled"): beside the greedy rollout it draws samples decodes and
// keeps the cheapest deployed schedule.
func RLSampled(m *ptrnet.Model, ecfg embed.Config, samples int, seed int64) Scheduler {
	return NewFunc("rl-sampled", func(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
		return rl.ScheduleSampledCtx(ctx, m, ecfg, g, numStages, samples, seed)
	})
}

// RLBeam returns the beam-search decode backend ("rl-beam") of the given
// width.
func RLBeam(m *ptrnet.Model, ecfg embed.Config, width int) Scheduler {
	return NewFunc("rl-beam", func(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
		return rl.ScheduleBeamCtx(ctx, m, ecfg, g, numStages, width)
	})
}

// The inference knobs an agent's sampled and beam backends get unless a
// caller has its own.
const (
	DefaultSamples   = 16
	DefaultBeamWidth = 8
)

// AgentBackends bundles the three decode modes of one trained model:
// greedy, best of samples stochastic decodes, and beam search of the given
// width. It is where every loader of an agent file passes, so it is where
// a model whose input width is not the embedding's is refused: such a
// model cannot decode a single graph, and the decoder reports that by
// panicking in the middle of a solve.
func AgentBackends(m *ptrnet.Model, ecfg embed.Config, samples, beamWidth int) ([]Scheduler, error) {
	if m.Cfg.InputDim != ecfg.Dim() {
		return nil, fmt.Errorf("solver: agent expects input width %d, the embedding produces %d", m.Cfg.InputDim, ecfg.Dim())
	}
	return []Scheduler{
		RL(m, ecfg),
		RLSampled(m, ecfg, samples, 1),
		RLBeam(m, ecfg, beamWidth),
	}, nil
}
