// Package rl implements RESPECT's training procedure (paper §III-B):
// model-free policy-gradient (REINFORCE) optimization of the LSTM-PtrNet,
// imitating the node-emission order of the exact scheduler on synthetic
// DAGs. The reward is the cosine similarity between the one-hot stage
// matrices of the predicted and exact schedules (Eq. 3); the gradient uses
// a greedy-rollout baseline that tracks the best model over past
// iterations (Eq. 6).
package rl

import (
	"context"
	"fmt"
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

// BaselineKind selects the variance-reduction baseline b(G).
type BaselineKind int8

// Baselines (Rollout is the paper's choice; the others are ablations).
const (
	BaselineRollout BaselineKind = iota
	BaselineEMA
	BaselineNone
)

// RewardKind selects the reward signal.
type RewardKind int8

// Rewards (CosineImitation is the paper's Eq. 3; DirectObjective is the
// "learn the objective, not the algorithm" ablation).
const (
	RewardCosineImitation RewardKind = iota
	RewardDirectObjective
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
	Baseline       BaselineKind
	Reward         RewardKind
	ChallengeEvery int  // iterations between rollout-baseline challenges
	Supervised     bool // cross-entropy teacher forcing ablation
	// Embed overrides the graph-embedding configuration (nil = paper
	// default); used by the embedding-column ablation benchmarks.
	Embed *embed.Config
	// GreedyRho switches ρ back to the greedy balanced-budget walk
	// (ablation); the default realizes ρ as the optimal DP segmentation
	// of the emitted order (sched.SequenceToScheduleDP).
	GreedyRho bool
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

// IterStats reports one training step.
type IterStats struct {
	Iter        int
	MeanReward  float64 // mean cosine/objective reward of sampled rollouts
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
	ema      float64
	emaInit  bool
	opt      *nn.Adam
	sampler  *synth.CurriculumSampler
	evalSet  []*graph.Graph // held-out graphs; their targets are solved on first use
	heldOut  []Example
	rng      *rand.Rand
}

// NewTrainer builds a trainer (and a fresh model) from cfg.
func NewTrainer(cfg Config) (*Trainer, error) {
	cfg = cfg.withDefaults()
	if cfg.Stages < 2 {
		return nil, fmt.Errorf("rl: need >= 2 stages, got %d", cfg.Stages)
	}
	ecfg := embed.Default()
	if cfg.Embed != nil {
		ecfg = *cfg.Embed
	}
	model := ptrnet.New(ptrnet.Config{InputDim: ecfg.Dim(), Hidden: cfg.Hidden, Seed: cfg.Seed})
	sampler, err := synth.NewCurriculum(cfg.NumNodes, cfg.Degrees, cfg.Seed+101)
	if err != nil {
		return nil, err
	}
	evalSampler, err := synth.NewCurriculum(cfg.NumNodes, cfg.Degrees, cfg.Seed+900001)
	if err != nil {
		return nil, err
	}
	evalSet := make([]*graph.Graph, 20)
	for i := range evalSet {
		evalSet[i] = evalSampler.Sample()
	}
	return &Trainer{
		Cfg:      cfg,
		Model:    model,
		EmbedCfg: ecfg,
		baseline: model.Clone(),
		opt:      nn.NewAdam(model.Params(), cfg.LR),
		sampler:  sampler,
		evalSet:  evalSet,
		rng:      rand.New(rand.NewSource(cfg.Seed + 7)),
	}, nil
}

// rho applies the configured sequence→schedule mapping.
func rho(g *graph.Graph, seq []int, stages int, greedy bool) (sched.Schedule, error) {
	if greedy {
		return sched.SequenceToSchedule(g, seq, stages)
	}
	return sched.SequenceToScheduleDP(g, seq, stages)
}

// GroundTruth computes the exact scheduler's sequence γ and schedule S for
// a graph (the imitation target). greedyRho selects the ρ variant so the
// reward compares like with like (Eq. 2).
func GroundTruth(g *graph.Graph, stages int) ([]int, sched.Schedule) {
	return groundTruth(g, stages, false)
}

// groundTruth bounds the exact search by states alone, so a label never
// depends on how fast the machine is.
func groundTruth(g *graph.Graph, stages int, greedyRho bool) ([]int, sched.Schedule) {
	res := exact.Solve(g, stages, exact.Options{MaxStates: 2_000_000})
	gamma := sched.ScheduleToSequence(g, res.Schedule)
	// S = ρ(γ): the reward compares like with like (Eq. 2).
	s, err := rho(g, gamma, stages, greedyRho)
	if err != nil {
		panic("rl: ground-truth sequence invalid: " + err.Error())
	}
	return gamma, s
}

// example solves g's imitation target at the configured stage count.
func (tr *Trainer) example(g *graph.Graph) Example {
	gamma, truth := groundTruth(g, tr.Cfg.Stages, tr.Cfg.GreedyRho)
	return Example{G: g, Truth: truth, gamma: gamma}
}

// Reward scores a predicted sequence π against the target schedule via ρ
// at the target's stage count: the cosine similarity of one-hot stage
// matrices (Eq. 1/3), or the normalized inverse objective for the
// direct-objective ablation.
func (tr *Trainer) Reward(g *graph.Graph, seq []int, truth sched.Schedule) float64 {
	s, err := rho(g, seq, truth.NumStages, tr.Cfg.GreedyRho)
	if err != nil {
		return 0
	}
	switch tr.Cfg.Reward {
	case RewardDirectObjective:
		// Peak memory of the repaired schedule relative to the exact
		// optimum: in (0, 1], 1 at optimal.
		repaired := sched.PostProcess(g, s)
		opt := truth.Evaluate(g).PeakParamBytes
		got := repaired.Evaluate(g).PeakParamBytes
		if got <= 0 {
			return 1
		}
		return float64(opt) / float64(got)
	default:
		return sched.Agreement(s, truth)
	}
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
// the gradient, or −w/n·log p(γ) under the supervised ablation, and Adam
// takes one step. challenge yields the set the rollout baseline is
// challenged on; it is called only when a challenge fires.
func (tr *Trainer) step(start time.Time, iter int, batch []Example, challenge func() []Example) IterStats {
	stats := IterStats{Iter: iter}
	if len(batch) == 0 {
		return stats
	}
	cfg := tr.Cfg
	n := float64(len(batch))
	for _, ex := range batch {
		w := ex.Weight
		if w == 0 {
			w = 1
		}
		emb := embed.Graph(ex.G, tr.EmbedCfg)
		tape := ad.NewTape()

		if cfg.Supervised {
			res := tr.Model.DecodeForced(tape, emb, ex.gamma)
			// Minimize −log p(γ): seed the log-prob with −w/n.
			res.LogProb.BackwardWithSeed(-w / n)
			stats.MeanReward += tr.Reward(ex.G, tr.Model.Infer(emb), ex.Truth)
			stats.MeanEntropy += res.AvgEntropy
			continue
		}

		res := tr.Model.Decode(tape, emb, true, tr.rng)
		reward := tr.Reward(ex.G, res.Seq, ex.Truth)
		cost := 1 - reward
		base := 0.0
		switch cfg.Baseline {
		case BaselineNone:
		case BaselineEMA:
			// Read b before this rollout updates it.
			if tr.emaInit {
				base = tr.ema
				tr.ema = 0.9*tr.ema + 0.1*cost
			} else {
				base = 0.5
				tr.ema, tr.emaInit = cost, true
			}
		default:
			base = 1 - tr.Reward(ex.G, tr.baseline.Infer(emb), ex.Truth)
		}
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
	if cfg.Baseline == BaselineRollout && (iter+1)%cfg.ChallengeEvery == 0 {
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

// Schedule runs RESPECT inference end to end on any graph: embed, greedy
// pointer decode, ρ, post-inference repair. This is the deployment path
// used by all experiments.
func Schedule(m *ptrnet.Model, ecfg embed.Config, g *graph.Graph, numStages int) (sched.Schedule, error) {
	return ScheduleCtx(context.Background(), m, ecfg, g, numStages)
}

// ScheduleCtx is Schedule under a context: decoding is quadratic in the
// node count (over a second on the largest zoo models), so the decoder
// checks ctx at every step and a cancelled call returns ctx's error.
func ScheduleCtx(ctx context.Context, m *ptrnet.Model, ecfg embed.Config, g *graph.Graph, numStages int) (sched.Schedule, error) {
	enc, err := encode(ctx, m, ecfg, g)
	if err != nil {
		return sched.Schedule{}, err
	}
	defer enc.Release()
	seq, err := enc.Greedy(ctx)
	if err != nil {
		return sched.Schedule{}, err
	}
	return deploySeq(g, seq, numStages)
}

// encode embeds g and runs the encoder over it, once for however many
// decodes follow, unless ctx is already done.
func encode(ctx context.Context, m *ptrnet.Model, ecfg embed.Config, g *graph.Graph) (*ptrnet.Encoding, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return m.Encode(embed.Graph(g, ecfg)), nil
}

// deploySeq is the shared deployment pipeline: sequence-level dependency
// repair (push violating nodes forward), ρ, then the stage-level
// children-same-stage repair.
func deploySeq(g *graph.Graph, seq []int, numStages int) (sched.Schedule, error) {
	repaired, err := sched.RepairSequence(g, seq)
	if err != nil {
		return sched.Schedule{}, fmt.Errorf("rl: inference produced invalid sequence: %w", err)
	}
	s, err := rho(g, repaired, numStages, false)
	if err != nil {
		return sched.Schedule{}, err
	}
	return sched.PostProcess(g, s), nil
}

// ScheduleSampled is sampling-based inference (Bello et al.'s "sampling"
// decoder): beside the greedy rollout it draws samples stochastic decodes
// and keeps the schedule with the best deployed objective. Solve time
// scales linearly in samples: the graph is embedded and encoded once and
// decoded samples+1 times.
func ScheduleSampled(m *ptrnet.Model, ecfg embed.Config, g *graph.Graph, numStages, samples int, seed int64) (sched.Schedule, error) {
	return ScheduleSampledCtx(context.Background(), m, ecfg, g, numStages, samples, seed)
}

// ScheduleSampledCtx is ScheduleSampled under a context, checked at every
// step of every decode.
func ScheduleSampledCtx(ctx context.Context, m *ptrnet.Model, ecfg embed.Config, g *graph.Graph, numStages, samples int, seed int64) (sched.Schedule, error) {
	enc, err := encode(ctx, m, ecfg, g)
	if err != nil {
		return sched.Schedule{}, err
	}
	defer enc.Release()
	seq, err := enc.Greedy(ctx)
	if err != nil {
		return sched.Schedule{}, err
	}
	best, err := deploySeq(g, seq, numStages)
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
		s, err := deploySeq(g, seq, numStages)
		if err != nil {
			return sched.Schedule{}, fmt.Errorf("rl: sampled sequence invalid: %w", err)
		}
		if c := s.Evaluate(g); c.Less(bestCost) {
			best, bestCost = s, c
		}
	}
	return best, nil
}

// ScheduleBeamCtx is beam-search inference: the width most likely node
// orders are decoded jointly and the most likely one is deployed. ctx is
// checked at every step.
func ScheduleBeamCtx(ctx context.Context, m *ptrnet.Model, ecfg embed.Config, g *graph.Graph, numStages, width int) (sched.Schedule, error) {
	enc, err := encode(ctx, m, ecfg, g)
	if err != nil {
		return sched.Schedule{}, err
	}
	defer enc.Release()
	seq, err := enc.Beam(ctx, width)
	if err != nil {
		return sched.Schedule{}, err
	}
	return deploySeq(g, seq, numStages)
}
