// Benchmarks regenerating the paper's tables and figures. One target per
// artifact (see DESIGN.md's per-experiment index):
//
//	Table I  -> BenchmarkTableIGraphConstruction
//	Figure 3 -> BenchmarkFig3SolveRL / SolveCompiler / SolveExactBB /
//	            SolveExactILP (training-scale instance)
//	Figure 4 -> BenchmarkFig4Inference
//	Figure 5 -> BenchmarkFig5GapToOptimal
//	§III-B   -> BenchmarkTrainingStep (+ BenchmarkAblation*)
//	Figure 2 -> BenchmarkPipelineSimulator
//
// The full numeric reproduction (all models × stage counts with reporting)
// lives in cmd/respect-bench; these benchmarks time one representative
// configuration each so `go test -bench=.` exercises every experimental
// code path.
package respect

import (
	"sync"
	"testing"
	"time"

	"respect/internal/compiler"
	"respect/internal/embed"
	"respect/internal/exact"
	"respect/internal/ilp"
	"respect/internal/models"
	"respect/internal/ptrnet"
	"respect/internal/rl"
	"respect/internal/sched"
	"respect/internal/synth"
	"respect/internal/tpu"
)

var (
	benchOnce  sync.Once
	benchAgent *ptrnet.Model
)

// benchModel lazily trains a small agent shared across benchmarks.
func benchModel(b *testing.B) *ptrnet.Model {
	b.Helper()
	benchOnce.Do(func() {
		tr, err := rl.NewTrainer(rl.Config{
			Hidden: 32, NumNodes: 20, Degrees: []int{2, 3}, Stages: 4,
			Iterations: 40, BatchSize: 8, LR: 2e-3, Seed: 1,
		})
		if err != nil {
			panic(err)
		}
		if err := tr.Train(nil); err != nil {
			panic(err)
		}
		benchAgent = tr.Model
	})
	return benchAgent
}

func BenchmarkTableIGraphConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range models.TableINames() {
			g := models.MustLoad(name)
			if g.Stats() != models.TableI[name] {
				b.Fatalf("%s: stats drifted", name)
			}
		}
	}
}

func BenchmarkFig3SolveRL(b *testing.B) {
	m := benchModel(b)
	for _, name := range []string{"Xception", "ResNet152"} {
		g := models.MustLoad(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rl.Schedule(m, embed.Default(), g, 6); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig3SolveCompiler(b *testing.B) {
	for _, name := range []string{"Xception", "ResNet152"} {
		g := models.MustLoad(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := compiler.Compile(g, 6, compiler.Options{Effort: 64}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig3SolveExactBB(b *testing.B) {
	for _, name := range []string{"Xception", "ResNet152"} {
		g := models.MustLoad(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := exact.Solve(g, 6, exact.Options{TieBreakCross: true, MaxStates: 200_000_000})
				if !res.Optimal {
					b.Fatal("exact truncated")
				}
			}
		})
	}
}

// BenchmarkFig3SolveExactILP times the generic MILP (the CPLEX stand-in)
// on a paper-training-scale 30-node instance with a node budget; at full
// model scale the MILP needs minutes per solve (see EXPERIMENTS.md).
func BenchmarkFig3SolveExactILP(b *testing.B) {
	s, err := synth.NewSampler(synth.DefaultConfig(3), 1)
	if err != nil {
		b.Fatal(err)
	}
	g := s.Sample()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.SolveILP(g, 4, ilp.Options{MaxNodes: 200}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4Inference(b *testing.B) {
	m := benchModel(b)
	g := models.MustLoad("ResNet152")
	hw := tpu.Coral()
	schedules := map[string]sched.Schedule{}
	schedules["compiler"] = ScheduleCompiler(g, 6)
	ex, _, _ := ScheduleExact(g, 6, 30*time.Second)
	schedules["exact"] = sched.PostProcess(g, ex)
	rlS, err := rl.Schedule(m, embed.Default(), g, 6)
	if err != nil {
		b.Fatal(err)
	}
	schedules["respect"] = rlS
	for name, s := range schedules {
		s := s
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tpu.RunBenchmark(g, s, hw, 10, 1000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig5GapToOptimal(b *testing.B) {
	m := benchModel(b)
	g := models.MustLoad("DenseNet121")
	for i := 0; i < b.N; i++ {
		opt := exact.Solve(g, 5, exact.Options{MaxStates: 100_000_000})
		s, err := rl.Schedule(m, embed.Default(), g, 5)
		if err != nil {
			b.Fatal(err)
		}
		if s.Evaluate(g).PeakParamBytes < opt.Cost.PeakParamBytes {
			b.Fatal("RL beat the proven optimum")
		}
	}
}

func BenchmarkTrainingStep(b *testing.B) {
	tr, err := rl.NewTrainer(rl.Config{
		Hidden: 48, NumNodes: 30, Stages: 4, Iterations: 1, BatchSize: 16, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Step(i)
	}
}

func BenchmarkPipelineSimulator(b *testing.B) {
	g := models.MustLoad("InceptionResNetv2")
	s := sched.PostProcess(g, ScheduleCompiler(g, 6))
	hw := tpu.Coral()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tpu.Simulate(g, s, hw); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benches: the design choices DESIGN.md calls out, timed as
// single training steps so their relative cost is visible.
func BenchmarkAblationTrainingStep(b *testing.B) {
	variants := map[string]rl.Config{
		"cosine_rollout": {},
		"direct_reward":  {Reward: rl.RewardDirectObjective},
		"ema_baseline":   {Baseline: rl.BaselineEMA},
		"no_baseline":    {Baseline: rl.BaselineNone},
		"supervised":     {Supervised: true},
	}
	for name, cfg := range variants {
		cfg.Hidden = 32
		cfg.NumNodes = 20
		cfg.Stages = 4
		cfg.Iterations = 1
		cfg.BatchSize = 8
		cfg.Seed = 3
		cfg.Degrees = []int{2, 3}
		b.Run(name, func(b *testing.B) {
			tr, err := rl.NewTrainer(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Step(i)
			}
		})
	}
}

func BenchmarkPostProcessRepair(b *testing.B) {
	g := models.MustLoad("InceptionResNetv2")
	raw := sched.NewSchedule(g.NumNodes(), 6)
	for v := range raw.Stage {
		raw.Stage[v] = v * 6 / g.NumNodes()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.PostProcess(g, raw)
	}
}

func BenchmarkEmbedding(b *testing.B) {
	g := models.MustLoad("InceptionResNetv2")
	cfg := embed.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		embed.Graph(g, cfg)
	}
}
