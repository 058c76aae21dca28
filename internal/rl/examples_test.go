package rl

import (
	"sync"
	"testing"

	"math/rand"

	"respect/internal/embed"
	"respect/internal/graph"
	"respect/internal/ptrnet"
	"respect/internal/sched"
)

// intree builds a binary-reduction DAG in which every node has at most
// one successor. Such a graph has no siblings, so every node is a class
// of its own and the deployed schedule cost genuinely depends on the
// emission order — the property the reward-sanity and online-loop
// tests need. (Dense synthetic DAGs collapse to a few sibling classes
// and deploy to the same cost for any order.)
func intree(t testing.TB, leaves int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.New("intree")
	var cur []int
	for i := 0; i < leaves; i++ {
		cur = append(cur, g.AddNode(graph.Node{Name: "leaf", ParamBytes: int64(50 + rng.Intn(400)), OutBytes: int64(5 + rng.Intn(40))}))
	}
	for len(cur) > 1 {
		var next []int
		for i := 0; i+1 < len(cur); i += 2 {
			v := g.AddNode(graph.Node{Name: "merge", ParamBytes: int64(50 + rng.Intn(400)), OutBytes: int64(5 + rng.Intn(40))})
			g.AddEdge(cur[i], v)
			g.AddEdge(cur[i+1], v)
			next = append(next, v)
		}
		if len(cur)%2 == 1 {
			next = append(next, cur[len(cur)-1])
		}
		cur = next
	}
	return g.MustBuild()
}

// exampleSet builds a fixed tiny graph set with exact-solver teachers —
// the "fixed tiny graph set" of the reward-sanity satellite.
func exampleSet(t *testing.T, n int, stages int, seed int64) []Example {
	t.Helper()
	exs := make([]Example, n)
	for i := range exs {
		g := intree(t, 6+i%3, seed+int64(i))
		_, truth := GroundTruth(g, stages)
		exs[i] = Example{G: g, Truth: truth}
	}
	return exs
}

// meanDeployedCost scores a model by the deployed pipeline (sequence
// repair, ρ) on the examples' graphs: the metric that must strictly
// improve under training. The graphs are sibling-free, so each is its own
// quotient up to numbering and the schedule needs no other repair.
func meanDeployedCost(t *testing.T, m *ptrnet.Model, ecfg embed.Config, exs []Example) float64 {
	t.Helper()
	total := 0.0
	for _, ex := range exs {
		seq, err := sched.RepairSequence(ex.G, m.Infer(embed.Graph(ex.G, ecfg)))
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.SequenceToScheduleDP(ex.G, seq, ex.Truth.NumStages)
		if err != nil {
			t.Fatal(err)
		}
		total += float64(s.Evaluate(ex.G).PeakParamBytes)
	}
	return total / float64(len(exs))
}

// TestExampleTrainingImprovesCost: training on a fixed tiny graph set
// strictly improves the mean deployed schedule cost (reward-signal
// sanity for the online loop).
func TestExampleTrainingImprovesCost(t *testing.T) {
	exs := exampleSet(t, 6, 4, 60)
	cfg := smallCfg(61)
	cfg.LR = 5e-3
	seed := newModel(t, cfg)
	tr := NewExampleTrainer(seed.Clone(), embed.Default(), cfg)

	before := meanDeployedCost(t, tr.Model, tr.EmbedCfg, exs)
	rewardFirst := tr.EvalExamples(tr.Model, exs)
	for i := 0; i < 60; i++ {
		tr.StepExamples(i, exs)
	}
	after := meanDeployedCost(t, tr.Model, tr.EmbedCfg, exs)
	rewardLast := tr.EvalExamples(tr.Model, exs)
	t.Logf("deployed cost %.0f -> %.0f, imitation reward %.3f -> %.3f", before, after, rewardFirst, rewardLast)
	if after >= before {
		t.Fatalf("mean cost did not strictly improve: %.0f -> %.0f", before, after)
	}
	if rewardLast <= rewardFirst {
		t.Fatalf("imitation reward did not rise: %.3f -> %.3f", rewardFirst, rewardLast)
	}
}

// TestExampleTrainingDeterministic: same seed, same examples → bitwise
// identical weights after training.
func TestExampleTrainingDeterministic(t *testing.T) {
	run := func() []float64 {
		exs := exampleSet(t, 3, 3, 70)
		cfg := smallCfg(71)
		tr := NewExampleTrainer(newModel(t, cfg), embed.Default(), cfg)
		for i := 0; i < 10; i++ {
			tr.StepExamples(i, exs)
		}
		var flat []float64
		for _, p := range tr.Model.Params() {
			flat = append(flat, p.Data...)
		}
		return flat
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("param counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("weights diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestExampleMixedStages: examples with different pipeline depths share
// a minibatch; rewards use each teacher's own stage count.
func TestExampleMixedStages(t *testing.T) {
	exs := append(exampleSet(t, 2, 2, 80), exampleSet(t, 2, 4, 81)...)
	cfg := smallCfg(82)
	tr := NewExampleTrainer(newModel(t, cfg), embed.Default(), cfg)
	st := tr.StepExamples(0, exs)
	if st.MeanReward <= 0 {
		t.Fatalf("no reward signal from mixed-stage batch: %+v", st)
	}
}

// TestConcurrentInferenceDuringTraining is the deployment contract of
// the online loop under -race: serving runs Infer on a promoted clone
// while the trainer mutates the candidate's weights. Inference on the
// frozen clone and on the training model's own Clone snapshots must be
// race-free; only the trainer touches the candidate.
func TestConcurrentInferenceDuringTraining(t *testing.T) {
	exs := exampleSet(t, 3, 3, 90)
	cfg := smallCfg(91)
	incumbent := newModel(t, cfg)  // the serving model
	candidate := incumbent.Clone() // the model under training
	tr := NewExampleTrainer(candidate, embed.Default(), cfg)

	embs := make([][][]float64, len(exs))
	for i, ex := range exs {
		embs[i] = embed.Graph(ex.G, tr.EmbedCfg)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				incumbent.Infer(embs[(w+i)%len(embs)])
			}
		}(w)
	}
	for i := 0; i < 6; i++ {
		tr.StepExamples(i, exs)
	}
	// Promotion under load: clone the trained candidate while serving
	// keeps hammering the incumbent, then serve from the clone too.
	promoted := tr.Model.Clone()
	if got := promoted.Infer(embs[0]); len(got) != exs[0].G.NumNodes() {
		t.Fatalf("promoted clone decode: %v", got)
	}
	close(stop)
	wg.Wait()
}

// newModel builds a fresh model matching cfg's embedding width.
func newModel(t *testing.T, cfg Config) *ptrnet.Model {
	t.Helper()
	return ptrnet.New(ptrnet.Config{InputDim: embed.Default().Dim(), Hidden: cfg.Hidden, Seed: cfg.Seed})
}
