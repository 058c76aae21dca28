package rl

import (
	"context"
	"errors"
	"slices"
	"testing"

	"respect/internal/embed"
	"respect/internal/graph"
	"respect/internal/models"
	"respect/internal/ptrnet"
	"respect/internal/sched"
	"respect/internal/synth"
)

// oneOrderModels are the zoo models whose sibling-class quotient has a
// single linear extension, which rl deploys without running the network.
var oneOrderModels = []string{
	"DenseNet121", "DenseNet169", "DenseNet201", "MobileNet",
	"ResNet101v2", "ResNet152v2", "ResNet50v2", "VGG16",
}

// equivalenceGraphs is the 14 zoo models, rl_infer's synthetic population
// (16 graphs each of 30, 50 and 100 nodes, degree 4, seeds 20230710..12),
// the empty graph and a one-node graph.
func equivalenceGraphs(t *testing.T) []*graph.Graph {
	t.Helper()
	gs, err := models.LoadMany(models.Names()...)
	if err != nil {
		t.Fatal(err)
	}
	for i, nodes := range []int{30, 50, 100} {
		cfg := synth.DefaultConfig(4)
		cfg.NumNodes = nodes
		s, err := synth.NewSampler(cfg, 20230710+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, s.SampleBatch(16)...)
	}
	one := graph.New("one")
	one.AddNode(graph.Node{ParamBytes: 1000, OutBytes: 10})
	return append(gs, graph.New("empty").MustBuild(), one.MustBuild())
}

// sameResult fails t unless the shortcut and the full path agree: the
// same error, or the same schedule bit for bit.
func sameResult(t *testing.T, what string, got, want sched.Schedule, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: err %v, full path %v", what, gotErr, wantErr)
	}
	if got.NumStages != want.NumStages || !slices.Equal(got.Stage, want.Stage) {
		t.Fatalf("%s: schedule %v, full path %v", what, got, want)
	}
}

// TestOneOrderShortcutMatchesDecode: on a quotient with one order,
// ScheduleCtx and ScheduleSampledCtx deploy that order without the
// network, and the schedule is the one the full embed, encode, decode and
// deploy path gives, under the benchmark's fixture and an untrained model,
// at every stage count the service sees and at one stage.
func TestOneOrderShortcutMatchesDecode(t *testing.T) {
	ecfg := embed.Default()
	fixture, err := ptrnet.LoadFile("../ptrnet/testdata/fixture_seed1.weights")
	if err != nil {
		t.Fatal(err)
	}
	agents := []struct {
		name string
		m    *ptrnet.Model
	}{
		{"fixture", fixture},
		{"untrained", ptrnet.New(ptrnet.Config{InputDim: ecfg.Dim(), Hidden: 64, Seed: 20230710})},
	}
	samples := 16
	if testing.Short() {
		samples = 2
	}
	ctx := context.Background()
	var oneOrder []string
	for _, g := range equivalenceGraphs(t) {
		c, err := condense(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		if !c.q.OneOrder() {
			continue
		}
		if slices.Contains(models.Names(), g.Name) {
			oneOrder = append(oneOrder, g.Name)
		}
		for _, a := range agents {
			for _, ns := range []int{1, 4, 5, 6} {
				got, gotErr := ScheduleCtx(ctx, a.m, ecfg, g, ns)
				want, wantErr := c.greedy(ctx, a.m, ecfg, ns)
				sameResult(t, a.name+" greedy "+g.Name, got, want, gotErr, wantErr)
				got, gotErr = ScheduleSampledCtx(ctx, a.m, ecfg, g, ns, samples, 1)
				want, wantErr = c.sampled(ctx, a.m, ecfg, g, ns, samples, 1)
				sameResult(t, a.name+" sampled "+g.Name, got, want, gotErr, wantErr)
			}
		}
	}
	slices.Sort(oneOrder)
	if !slices.Equal(oneOrder, oneOrderModels) {
		t.Fatalf("zoo models with one class order: %v, want %v", oneOrder, oneOrderModels)
	}
}

// TestOneOrderShortcutHonoursDoneContext: a context that is done before
// the call is refused before any work, shortcut or not.
func TestOneOrderShortcutHonoursDoneContext(t *testing.T) {
	ecfg := embed.Default()
	m := ptrnet.New(ptrnet.Config{InputDim: ecfg.Dim(), Hidden: 8, Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := models.MustLoad("VGG16")
	if _, err := ScheduleCtx(ctx, m, ecfg, g, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("greedy: err = %v, want context.Canceled", err)
	}
	if _, err := ScheduleSampledCtx(ctx, m, ecfg, g, 4, 2, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("sampled: err = %v, want context.Canceled", err)
	}
}
