// Replay-example training: the online learning loop (internal/online)
// feeds the REINFORCE step the synthetic curriculum feeds, with
// live-traffic samples. Each example carries its own imitation teacher —
// the schedule the serving portfolio's winning backend produced — so no
// exact-solver ground truth is computed here.
package rl

import (
	"math/rand"
	"time"

	"respect/internal/embed"
	"respect/internal/graph"
	"respect/internal/nn"
	"respect/internal/ptrnet"
	"respect/internal/sched"
)

// Example is one imitation target: the graph, the teacher schedule (the
// exact solver's on the curriculum, the portfolio winner's on replay),
// and an importance weight. Truth.NumStages fixes the stage count for ρ,
// so examples with different pipeline depths can share a minibatch.
type Example struct {
	// G is the scheduled graph.
	G *graph.Graph
	// Truth is the teacher schedule the reward compares against.
	Truth sched.Schedule
	// Weight scales this example's gradient contribution; 0 means 1.
	// The online loop down-weights deadline-missed periodic samples.
	Weight float64
}

// NewExampleTrainer wraps an existing model for replay-driven training
// via StepExamples. The model is trained in place; callers that serve
// from the same weights must train a Clone. Unlike NewTrainer, no
// synthetic curriculum or held-out evaluation set is built — Step,
// Train and EvalGreedy must not be used on the returned trainer.
func NewExampleTrainer(m *ptrnet.Model, ecfg embed.Config, cfg Config) *Trainer {
	cfg = cfg.withDefaults()
	return &Trainer{
		Cfg:      cfg,
		Model:    m,
		EmbedCfg: ecfg,
		baseline: m.Clone(),
		opt:      nn.NewAdam(m.Params(), cfg.LR),
		rng:      rand.New(rand.NewSource(cfg.Seed + 7)),
	}
}

// StepExamples runs one training iteration over the given examples (the
// teacher schedules standing in for the exact scheduler's) and returns its
// statistics. The rollout baseline is challenged on the same examples
// every ChallengeEvery iterations.
func (tr *Trainer) StepExamples(iter int, examples []Example) IterStats {
	return tr.step(time.Now(), iter, examples, func() []Example { return examples })
}

// EvalExamples returns the mean greedy-decode imitation reward of m
// over the examples (weights are ignored: this is an evaluation, not a
// gradient).
func (tr *Trainer) EvalExamples(m *ptrnet.Model, examples []Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	total := 0.0
	for _, ex := range examples {
		emb := embed.Graph(ex.G, tr.EmbedCfg)
		total += tr.Reward(ex.G, m.Infer(emb), ex.Truth)
	}
	return total / float64(len(examples))
}
