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
// agent binds them (Registry.BindAgent, which replaces an earlier
// agent's).

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

// agentSamples is the number of stochastic decodes the bound
// "rl-sampled" draws beside its greedy rollout.
const agentSamples = 16

// CheckAgent refuses a model whose input width is not the embedding's:
// such a model cannot decode a single graph, and the decoder reports that
// by panicking in the middle of a solve. Every loader of an agent file
// passes here, through Registry.BindAgent or directly.
func CheckAgent(m *ptrnet.Model, ecfg embed.Config) error {
	if m.Cfg.InputDim != ecfg.Dim() {
		return fmt.Errorf("solver: agent expects input width %d, the embedding produces %d", m.Cfg.InputDim, ecfg.Dim())
	}
	return nil
}

// BindAgent registers the decode modes of one trained model in r: "rl"
// (greedy) and "rl-sampled" (the greedy rollout and 16 stochastic
// decodes, seed 1). They replace any agent bound before; a model
// CheckAgent refuses registers nothing.
func (r *Registry) BindAgent(m *ptrnet.Model, ecfg embed.Config) error {
	if err := CheckAgent(m, ecfg); err != nil {
		return err
	}
	for _, s := range []Scheduler{RL(m, ecfg), RLSampled(m, ecfg, agentSamples, 1)} {
		if err := r.Replace(s); err != nil {
			return err
		}
	}
	return nil
}
