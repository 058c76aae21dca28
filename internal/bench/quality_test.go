package bench

import (
	"context"
	"testing"
	"time"

	"respect/internal/embed"
	"respect/internal/exact"
	"respect/internal/models"
	"respect/internal/ptrnet"
	"respect/internal/rl"
	"respect/internal/sched"
)

// TestAgentQuality holds the RL decoders, the only backends the model-free
// oracle tests never see, to the hardware contract on the committed
// benchmark agent: their schedules are valid, keep every node's children in
// one stage, and never beat the proven deployable optimum. It also pins
// what the class decode delivers: on the Table I models at 4 stages the
// greedy peak is on average within 1 % of that optimum.
func TestAgentQuality(t *testing.T) {
	m, err := ptrnet.LoadFile("../ptrnet/testdata/fixture_seed1.weights")
	if err != nil {
		t.Fatal(err)
	}
	ecfg := embed.Default()
	for _, name := range []string{"Xception", "ResNet50", "DenseNet121", "ResNet152", "InceptionResNetv2"} {
		g := models.MustLoad(name)
		for _, ns := range []int{4, 6} {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			opt := exact.SolveCtx(ctx, g, ns, exact.Options{ChildrenRule: true})
			cancel()
			if !opt.Optimal {
				t.Fatalf("%s/%d: deployable optimum not proven", name, ns)
			}
			greedy, err := rl.Schedule(m, ecfg, g, ns)
			if err != nil {
				t.Fatalf("%s/%d greedy: %v", name, ns, err)
			}
			sampled, err := rl.ScheduleSampled(m, ecfg, g, ns, 16, 1)
			if err != nil {
				t.Fatalf("%s/%d sampled: %v", name, ns, err)
			}
			for decoder, s := range map[string]sched.Schedule{"greedy": greedy, "sampled16": sampled} {
				if err := s.Validate(g); err != nil {
					t.Fatalf("%s/%d %s: %v", name, ns, decoder, err)
				}
				if !s.SameStageChildrenOK(g) {
					t.Fatalf("%s/%d %s: children split across stages", name, ns, decoder)
				}
				if peak := s.Evaluate(g).PeakParamBytes; peak < opt.Cost.PeakParamBytes {
					t.Fatalf("%s/%d %s: peak %d below the proven deployable optimum %d",
						name, ns, decoder, peak, opt.Cost.PeakParamBytes)
				}
			}
		}
	}

	var gap float64
	names := models.TableINames()
	for _, name := range names {
		g := models.MustLoad(name)
		opt := exact.Solve(g, 4, exact.Options{ChildrenRule: true})
		if !opt.Optimal {
			t.Fatalf("%s/4: deployable optimum not proven", name)
		}
		s, err := rl.Schedule(m, ecfg, g, 4)
		if err != nil {
			t.Fatalf("%s/4 greedy: %v", name, err)
		}
		optPeak := float64(opt.Cost.PeakParamBytes)
		gap += (float64(s.Evaluate(g).PeakParamBytes) - optPeak) / optPeak * 100
	}
	if gap /= float64(len(names)); gap > 1 {
		t.Fatalf("greedy peak is %.2f %% above the deployable optimum on average over the Table I models, want <= 1 %%", gap)
	}
	t.Logf("mean gap to the deployable optimum over the Table I models at 4 stages: %.3f %%", gap)
}
