// Package rl implements RESPECT's training procedure (paper §III-B):
// model-free policy-gradient (REINFORCE) optimization of the LSTM-PtrNet,
// imitating the node-emission order of the exact scheduler on synthetic
// DAGs. The reward is the cosine similarity between the one-hot stage
// matrices of the predicted and exact schedules (Eq. 3); the gradient uses
// a greedy-rollout baseline that tracks the best model over past
// iterations (Eq. 6). ρ, which cuts an emitted order into stages, is the
// optimal DP segmentation (sched.SequenceToScheduleDP) on both sides
// of the reward.
package rl

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	ad "respect/internal/autodiff"
	"respect/internal/embed"
	"respect/internal/exact"
	"respect/internal/graph"
	"respect/internal/nn"
	"respect/internal/ptrnet"
	"respect/internal/sched"
	"respect/internal/synth"
)

// Config controls training. Zero values are replaced by defaults matching
// a scaled-down version of the paper's setup (the paper trains 300 epochs
// × 1M graphs with hidden 256 on a GPU; defaults here train in seconds on
// a CPU and every knob scales up).
type Config struct {
	Hidden         int     // LSTM/attention width (paper: 256)
	NumNodes       int     // synthetic graph size |V| (paper: 30)
	Degrees        []int   // deg(V) curriculum (paper: 2..6)
	Stages         int     // pipeline stages for ρ and γ during training
	Iterations     int     // gradient steps
	BatchSize      int     // graphs per step (paper: 128)
	LR             float64 // Adam learning rate (paper: 1e-4)
	Seed           int64
	ChallengeEvery int // iterations between rollout-baseline challenges
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Hidden == 0 {
		c.Hidden = 64
	}
	if c.NumNodes == 0 {
		c.NumNodes = 30
	}
	if len(c.Degrees) == 0 {
		c.Degrees = []int{2, 3, 4, 5, 6}
	}
	if c.Stages == 0 {
		c.Stages = 4
	}
	if c.Iterations == 0 {
		c.Iterations = 200
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.ChallengeEvery == 0 {
		c.ChallengeEvery = 20
	}
	return c
}

// check refuses a filled-in configuration the trainer cannot train.
func (c Config) check() error {
	switch {
	case c.Stages < 2:
		return fmt.Errorf("rl: need >= 2 stages, got %d", c.Stages)
	case c.Hidden < 1:
		return fmt.Errorf("rl: hidden width must be positive, got %d", c.Hidden)
	case c.BatchSize < 1:
		return fmt.Errorf("rl: batch size must be positive, got %d", c.BatchSize)
	case c.Iterations < 1:
		return fmt.Errorf("rl: iterations must be positive, got %d", c.Iterations)
	case c.ChallengeEvery < 1:
		return fmt.Errorf("rl: challenge interval must be positive, got %d", c.ChallengeEvery)
	case !(c.LR > 0) || math.IsInf(c.LR, 1):
		return fmt.Errorf("rl: learning rate must be positive and finite, got %v", c.LR)
	}
	return nil
}

// IterStats reports one training step.
type IterStats struct {
	Iter        int
	MeanReward  float64 // mean cosine reward of sampled rollouts
	MeanBase    float64 // mean baseline value
	GradNorm    float64
	MeanEntropy float64
	Elapsed     time.Duration
}

// Trainer holds the model and training state.
type Trainer struct {
	Cfg      Config
	Model    *ptrnet.Model
	EmbedCfg embed.Config

	baseline *ptrnet.Model
	opt      *nn.Adam
	sampler  *synth.CurriculumSampler
	evalSet  []*graph.Graph // held-out graphs; their targets are solved on first use
	heldOut  []Example
	rng      *rand.Rand
}

// NewTrainer builds a trainer (and a fresh model) from cfg, or refuses a
// configuration it cannot train.
func NewTrainer(cfg Config) (*Trainer, error) {
	cfg = cfg.withDefaults()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	ecfg := embed.Default()
	model := ptrnet.New(ptrnet.Config{InputDim: ecfg.Dim(), Hidden: cfg.Hidden, Seed: cfg.Seed})
	sampler, err := synth.NewCurriculum(cfg.NumNodes, cfg.Degrees, cfg.Seed+101)
	if err != nil {
		return nil, err
	}
	evalSampler, err := synth.NewCurriculum(cfg.NumNodes, cfg.Degrees, cfg.Seed+900001)
	if err != nil {
		return nil, err
	}
	tr := NewExampleTrainer(model, ecfg, cfg)
	tr.sampler = sampler
	tr.evalSet = make([]*graph.Graph, 20)
	for i := range tr.evalSet {
		tr.evalSet[i] = evalSampler.Sample()
	}
	return tr, nil
}

// GroundTruth computes the exact scheduler's sequence γ and schedule S for
// a graph (the imitation target). The exact search is bounded by states
// alone, so a label never depends on how fast the machine is.
func GroundTruth(g *graph.Graph, stages int) ([]int, sched.Schedule) {
	res := exact.Solve(g, stages, exact.Options{MaxStates: 2_000_000})
	gamma := sched.ScheduleToSequence(g, res.Schedule)
	// S = ρ(γ): the reward compares like with like (Eq. 2).
	s, err := sched.SequenceToScheduleDP(g, gamma, stages)
	if err != nil {
		panic("rl: ground-truth sequence invalid: " + err.Error())
	}
	return gamma, s
}

// example solves g's imitation target at the configured stage count.
func (tr *Trainer) example(g *graph.Graph) Example {
	_, truth := GroundTruth(g, tr.Cfg.Stages)
	return Example{G: g, Truth: truth}
}

// Reward scores a predicted sequence π against the target schedule via ρ
// at the target's stage count: the cosine similarity of one-hot stage
// matrices (Eq. 1/3).
func (tr *Trainer) Reward(g *graph.Graph, seq []int, truth sched.Schedule) float64 {
	s, err := sched.SequenceToScheduleDP(g, seq, truth.NumStages)
	if err != nil {
		return 0
	}
	return sched.Agreement(s, truth)
}

// Step runs one training iteration on BatchSize fresh curriculum graphs,
// challenging the rollout baseline on the held-out set, and returns its
// statistics.
func (tr *Trainer) Step(iter int) IterStats {
	start := time.Now()
	batch := make([]Example, tr.Cfg.BatchSize)
	for i := range batch {
		batch[i] = tr.example(tr.sampler.Sample())
	}
	return tr.step(start, iter, batch, tr.heldOutSet)
}

// step is the one REINFORCE iteration (Eq. 6) the curriculum and the
// replay buffer both feed: every example contributes (cost − b)·w/n to
// the gradient, b being the rollout baseline's cost, and Adam takes one
// step. challenge yields the set the rollout baseline is challenged on;
// it is called only when a challenge fires.
func (tr *Trainer) step(start time.Time, iter int, batch []Example, challenge func() []Example) IterStats {
	stats := IterStats{Iter: iter}
	if len(batch) == 0 {
		return stats
	}
	n := float64(len(batch))
	for _, ex := range batch {
		w := ex.Weight
		if w == 0 {
			w = 1
		}
		emb := embed.Graph(ex.G, tr.EmbedCfg)
		res := tr.Model.Decode(ad.NewTape(), emb, true, tr.rng)
		reward := tr.Reward(ex.G, res.Seq, ex.Truth)
		cost := 1 - reward
		base := 1 - tr.Reward(ex.G, tr.baseline.Infer(emb), ex.Truth)
		// ∇J = E[(cost − b)·∇log p] (Eq. 6); Adam descends the
		// accumulated gradient.
		res.LogProb.BackwardWithSeed((cost - base) * w / n)

		stats.MeanReward += reward
		stats.MeanBase += base
		stats.MeanEntropy += res.AvgEntropy
	}
	stats.MeanReward /= n
	stats.MeanBase /= n
	stats.MeanEntropy /= n
	stats.GradNorm = tr.opt.GradNorm()
	tr.opt.Step()

	// Rollout-baseline challenge: adopt the current model if it beats the
	// snapshot on the challenge set (greedy vs greedy).
	if (iter+1)%tr.Cfg.ChallengeEvery == 0 {
		set := challenge()
		if tr.EvalExamples(tr.Model, set) > tr.EvalExamples(tr.baseline, set) {
			tr.baseline = tr.Model.Clone()
		}
	}
	stats.Elapsed = time.Since(start)
	return stats
}

// Train runs the configured number of iterations, invoking progress (if
// non-nil) after each.
func (tr *Trainer) Train(progress func(IterStats)) error {
	for i := 0; i < tr.Cfg.Iterations; i++ {
		st := tr.Step(i)
		if progress != nil {
			progress(st)
		}
		if err := nn.CheckFinite(tr.Model.Params()); err != nil {
			return fmt.Errorf("rl: diverged at iteration %d: %w", i, err)
		}
	}
	return nil
}

// heldOutSet returns the held-out evaluation examples, solving their
// targets on first use.
func (tr *Trainer) heldOutSet() []Example {
	if tr.heldOut == nil {
		tr.heldOut = make([]Example, len(tr.evalSet))
		for i, g := range tr.evalSet {
			tr.heldOut[i] = tr.example(g)
		}
	}
	return tr.heldOut
}

// EvalGreedy returns the mean greedy-decode reward of m over the held-out
// evaluation set.
func (tr *Trainer) EvalGreedy(m *ptrnet.Model) float64 {
	return tr.EvalExamples(m, tr.heldOutSet())
}

// Schedule runs RESPECT inference end to end on any graph: condense g to
// its sibling-class quotient, embed the quotient graph, greedy pointer
// decode over the classes, ρ, expand. The schedule is deployable by
// construction. This is the deployment path used by all experiments.
func Schedule(m *ptrnet.Model, ecfg embed.Config, g *graph.Graph, numStages int) (sched.Schedule, error) {
	return ScheduleCtx(context.Background(), m, ecfg, g, numStages)
}

// ScheduleCtx is Schedule under a context: decoding is quadratic in the
// class count, so the decoder checks ctx at every step and a cancelled
// call returns ctx's error. A quotient with only one order skips the
// network: every decode would be repaired to that order (see
// sched.Quotient.OneOrder), so it goes to deploy as it is.
func ScheduleCtx(ctx context.Context, m *ptrnet.Model, ecfg embed.Config, g *graph.Graph, numStages int) (sched.Schedule, error) {
	c, err := condense(ctx, g)
	if err != nil {
		return sched.Schedule{}, err
	}
	if c.q.OneOrder() {
		return c.deployOnly(numStages)
	}
	return c.greedy(ctx, m, ecfg, numStages)
}

// classes is a graph made ready to decode: its sibling-class quotient and
// the quotient as a graph.
type classes struct {
	q  sched.Quotient
	qg *graph.Graph
}

// condense computes g's sibling-class quotient, unless ctx is already
// done.
func condense(ctx context.Context, g *graph.Graph) (*classes, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	q := sched.Condense(g)
	return &classes{q: q, qg: q.Graph(g.Name)}, nil
}

// greedy embeds the quotient graph, encodes it and deploys its greedy
// decode.
func (c *classes) greedy(ctx context.Context, m *ptrnet.Model, ecfg embed.Config, numStages int) (sched.Schedule, error) {
	enc := m.Encode(embed.Graph(c.qg, ecfg))
	defer enc.Release()
	seq, err := enc.Greedy(ctx)
	if err != nil {
		return sched.Schedule{}, err
	}
	return c.deploy(seq, numStages)
}

// deployOnly deploys the class order 0..n−1, which is the only order of a
// quotient for which OneOrder holds and so what deploy makes of any decode.
func (c *classes) deployOnly(numStages int) (sched.Schedule, error) {
	seq := make([]int, c.q.NumClasses())
	for i := range seq {
		seq[i] = i
	}
	return c.deploy(seq, numStages)
}

// deploy maps a decoded class order to a schedule of the graph: the order
// is repaired into a linear extension of the quotient (a class waits until
// its predecessors are emitted), ρ cuts that into numStages segments, and
// every node takes its class's stage. Contiguous segments of a linear
// extension are a monotone assignment of the quotient, which expands to a
// deployable schedule (see sched.Quotient), so nothing is left to repair.
func (c *classes) deploy(seq []int, numStages int) (sched.Schedule, error) {
	repaired, err := sched.RepairSequence(c.qg, seq)
	if err != nil {
		return sched.Schedule{}, fmt.Errorf("rl: inference produced invalid sequence: %w", err)
	}
	s, err := sched.SequenceToScheduleDP(c.qg, repaired, numStages)
	if err != nil {
		return sched.Schedule{}, err
	}
	return c.q.Expand(s), nil
}

// ScheduleSampled is sampling-based inference (Bello et al.'s "sampling"
// decoder): beside the greedy rollout it draws samples stochastic decodes
// and keeps the schedule with the best deployed objective. Solve time
// scales linearly in samples: the quotient is embedded and encoded once
// and decoded samples+1 times.
func ScheduleSampled(m *ptrnet.Model, ecfg embed.Config, g *graph.Graph, numStages, samples int, seed int64) (sched.Schedule, error) {
	return ScheduleSampledCtx(context.Background(), m, ecfg, g, numStages, samples, seed)
}

// ScheduleSampledCtx is ScheduleSampled under a context, checked at every
// step of every decode. A quotient with only one order skips the network
// as ScheduleCtx does: every decode would deploy to the same schedule.
func ScheduleSampledCtx(ctx context.Context, m *ptrnet.Model, ecfg embed.Config, g *graph.Graph, numStages, samples int, seed int64) (sched.Schedule, error) {
	c, err := condense(ctx, g)
	if err != nil {
		return sched.Schedule{}, err
	}
	if c.q.OneOrder() {
		return c.deployOnly(numStages)
	}
	return c.sampled(ctx, m, ecfg, g, numStages, samples, seed)
}

// sampled embeds the quotient graph and encodes it once, then deploys
// its greedy decode and samples stochastic ones and keeps the schedule
// that is cheapest on g.
func (c *classes) sampled(ctx context.Context, m *ptrnet.Model, ecfg embed.Config, g *graph.Graph, numStages, samples int, seed int64) (sched.Schedule, error) {
	enc := m.Encode(embed.Graph(c.qg, ecfg))
	defer enc.Release()
	seq, err := enc.Greedy(ctx)
	if err != nil {
		return sched.Schedule{}, err
	}
	best, err := c.deploy(seq, numStages)
	if err != nil {
		return sched.Schedule{}, err
	}
	bestCost := best.Evaluate(g)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < samples; i++ {
		seq, err := enc.Sample(ctx, rng)
		if err != nil {
			return sched.Schedule{}, err
		}
		s, err := c.deploy(seq, numStages)
		if err != nil {
			return sched.Schedule{}, fmt.Errorf("rl: sampled sequence invalid: %w", err)
		}
		if cost := s.Evaluate(g); cost.Less(bestCost) {
			best, bestCost = s, cost
		}
	}
	return best, nil
}
