package rl

import (
	"context"

	"respect/internal/embed"
	"respect/internal/graph"
	"respect/internal/ptrnet"
	"respect/internal/sched"
)

// classes is a graph's quotient with the network decode paths bound to
// it, for the tests that hold the one-order shortcut to the full embed,
// encode, decode and deploy path.
type classes struct {
	q sched.Quotient
}

// condense reads g's quotient, unless ctx is already done, as ScheduleCtx
// does before either path.
func condense(ctx context.Context, g *graph.Graph) (*classes, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &classes{q: sched.Condense(g)}, nil
}

func (c *classes) greedy(ctx context.Context, m *ptrnet.Model, ecfg embed.Config, numStages int) (sched.Schedule, error) {
	return greedy(ctx, m, ecfg, c.q, numStages)
}

func (c *classes) sampled(ctx context.Context, m *ptrnet.Model, ecfg embed.Config, g *graph.Graph, numStages, samples int, seed int64) (sched.Schedule, error) {
	return sampled(ctx, m, ecfg, c.q, g, numStages, samples, seed)
}
