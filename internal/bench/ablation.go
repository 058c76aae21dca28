package bench

import (
	"context"
	"fmt"
	"time"

	"respect/internal/embed"
	"respect/internal/models"
	"respect/internal/rl"
	"respect/internal/solver"
)

// AblationRow is one training-variant outcome.
type AblationRow struct {
	Variant string
	// GreedyReward is the mean cosine-imitation reward of greedy decoding
	// on the trainer's held-out synthetic evaluation set.
	GreedyReward float64
	// TrainTime is total wall-clock training time.
	TrainTime time.Duration
}

// AblationConfig bounds the study's cost.
type AblationConfig struct {
	Iterations int
	Hidden     int
	NumNodes   int
	Seed       int64
}

// DefaultAblation is sized to finish in a couple of minutes on a laptop.
func DefaultAblation() AblationConfig {
	return AblationConfig{Iterations: 120, Hidden: 32, NumNodes: 20, Seed: 7}
}

// Ablations trains the training-design variants and reports final
// held-out quality: reward shape, baseline choice, supervised teacher
// forcing, embedding columns and the ρ segmentation.
func Ablations(cfg AblationConfig) ([]AblationRow, error) {
	base := rl.Config{
		Hidden: cfg.Hidden, NumNodes: cfg.NumNodes, Degrees: []int{2, 3, 4},
		Stages: 4, Iterations: cfg.Iterations, BatchSize: 12, LR: 2e-3, Seed: cfg.Seed,
	}

	noMem := embed.Default()
	noMem.IncludeMemory = false
	noParents := embed.Default()
	noParents.Parents = 0

	variants := []struct {
		name string
		mut  func(c rl.Config) rl.Config
	}{
		{"paper (cosine reward, rollout baseline)", func(c rl.Config) rl.Config { return c }},
		{"reward: direct objective", func(c rl.Config) rl.Config { c.Reward = rl.RewardDirectObjective; return c }},
		{"baseline: EMA", func(c rl.Config) rl.Config { c.Baseline = rl.BaselineEMA; return c }},
		{"baseline: none", func(c rl.Config) rl.Config { c.Baseline = rl.BaselineNone; return c }},
		{"supervised teacher forcing", func(c rl.Config) rl.Config { c.Supervised = true; return c }},
		{"embedding: no memory column", func(c rl.Config) rl.Config { c.Embed = &noMem; return c }},
		{"embedding: no parent columns", func(c rl.Config) rl.Config { c.Embed = &noParents; return c }},
		{"rho: greedy budget walk", func(c rl.Config) rl.Config { c.GreedyRho = true; return c }},
	}

	var rows []AblationRow
	for _, v := range variants {
		tr, err := rl.NewTrainer(v.mut(base))
		if err != nil {
			return nil, fmt.Errorf("bench: ablation %q: %w", v.name, err)
		}
		start := time.Now()
		if err := tr.Train(nil); err != nil {
			return nil, fmt.Errorf("bench: ablation %q: %w", v.name, err)
		}
		rows = append(rows, AblationRow{
			Variant:      v.name,
			GreedyReward: tr.EvalGreedy(tr.Model),
			TrainTime:    time.Since(start),
		})
	}
	return rows, nil
}

// HeuristicRow compares one scheduler backend's schedule quality on a
// model (supporting the paper's §II discussion of the heuristic/exact
// trade-off).
type HeuristicRow struct {
	Name     string
	PeakMiB  float64
	CrossMiB float64
	Elapsed  time.Duration
}

// HeuristicStudy evaluates every registered backend on one model with a
// 10-second budget per backend.
func HeuristicStudy(name string, ns int) ([]HeuristicRow, error) {
	return BackendStudy(context.Background(), name, ns, nil, 10*time.Second)
}

// BackendStudy evaluates the named registry backends (nil = every
// registered one) on one model, reporting deployed schedule
// quality and solve latency per backend. Each backend gets its own
// perBackend budget (0 = none beyond ctx), so an anytime search that runs
// to its deadline cannot starve the backends after it.
func BackendStudy(ctx context.Context, model string, ns int, backends []string, perBackend time.Duration) ([]HeuristicRow, error) {
	g, err := models.Load(model)
	if err != nil {
		return nil, err
	}
	if backends == nil {
		backends = solver.Names()
	}
	schedulers, err := solver.Resolve(backends...)
	if err != nil {
		return nil, err
	}
	var rows []HeuristicRow
	for _, b := range schedulers {
		bctx, cancel := ctx, context.CancelFunc(func() {})
		if perBackend > 0 {
			bctx, cancel = context.WithTimeout(ctx, perBackend)
		}
		// One cold call, no warm-up: anytime backends are budget-bound, so
		// a warm-up would double the run.
		start := time.Now()
		s, err := b.Schedule(bctx, g, ns)
		el := time.Since(start)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("bench: backend %q: %w", b.Name(), err)
		}
		c := s.Evaluate(g)
		rows = append(rows, HeuristicRow{
			Name:     b.Name(),
			PeakMiB:  float64(c.PeakParamBytes) / (1 << 20),
			CrossMiB: float64(c.CrossBytes) / (1 << 20),
			Elapsed:  el,
		})
	}
	return rows, nil
}
