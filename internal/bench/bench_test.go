package bench

import (
	"strings"
	"testing"

	"respect/internal/exact"
	"respect/internal/models"
	"respect/internal/rl"
	"respect/internal/tpu"
)

// tinyTrainer returns a barely-trained trainer for harness plumbing tests.
func tinyTrainer(t *testing.T) *rl.Trainer {
	t.Helper()
	tr, err := rl.NewTrainer(rl.Config{
		Hidden: 12, NumNodes: 10, Degrees: []int{2}, Stages: 3,
		Iterations: 3, BatchSize: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Train(nil); err != nil {
		t.Fatal(err)
	}
	return tr
}

var quickModels = []string{"Xception", "ResNet50"}

func TestTableIAllMatch(t *testing.T) {
	rows := TableI()
	if len(rows) != 10 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if !r.Match {
			t.Errorf("%s does not match the paper's Table I: %+v", r.Model, r.Stats)
		}
	}
}

func TestFig3Harness(t *testing.T) {
	tr := tinyTrainer(t)
	rows, err := Fig3(tr.Model, tr.EmbedCfg, Fig3Config{
		Models: quickModels, Stages: []int{4}, CompilerEffort: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.RL <= 0 || r.Compiler <= 0 || r.CombExact <= 0 {
			t.Errorf("unmeasured durations: %+v", r)
		}
		if r.ILP != 0 {
			t.Errorf("ILP ran despite zero budget")
		}
		if r.SpeedupVsCompiler <= 0 {
			t.Errorf("speedup not computed: %+v", r)
		}
	}
	SortRows(rows)
	if rows[0].V > rows[1].V {
		t.Error("SortRows did not order by |V|")
	}
}

func TestFig4Harness(t *testing.T) {
	tr := tinyTrainer(t)
	rows, err := Fig4(tr.Model, tr.EmbedCfg, quickModels, []int{4}, tpu.Coral())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.CompilerLatency <= 0 || r.RelRL <= 0 || r.RelExact <= 0 {
			t.Errorf("bad row: %+v", r)
		}
		// The exact schedule cannot be drastically slower than the
		// compiler heuristic; allow noise headroom.
		if r.RelExact > 1.5 {
			t.Errorf("%s: exact %vx slower than compiler", r.Model, r.RelExact)
		}
	}
}

func TestFig5HarnessAndAverages(t *testing.T) {
	tr := tinyTrainer(t)
	rows, err := Fig5(tr.Model, tr.EmbedCfg, quickModels, []int{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.GapPct < 0 {
			t.Errorf("%s/%d: RL beat the proven optimum (gap %.2f%%)", r.Model, r.Stages, r.GapPct)
		}
	}
	avg := Fig5Averages(rows)
	if len(avg) != 2 {
		t.Fatalf("averages for %d stage counts", len(avg))
	}
}

func TestPostProcessAblationHarness(t *testing.T) {
	tr := tinyTrainer(t)
	rows, err := PostProcessAblation(tr, []string{"Xception"}, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	if r.RepairedPeakMiB < r.OptimalPeakMiB {
		t.Errorf("repaired schedule beats the optimum: %+v", r)
	}
}

func TestHeuristicStudy(t *testing.T) {
	rows, err := HeuristicStudy("Xception", 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(StudyBackends()); len(rows) != want {
		t.Fatalf("%d rows, want one per study backend (%d)", len(rows), want)
	}
	found := false
	for _, r := range rows {
		if r.Name == "exact" {
			found = true
		}
	}
	if !found {
		t.Fatal("exact backend missing from study")
	}
	// Every backend returns deployed schedules, which stay monotone, so
	// none can beat the raw monotone optimum.
	g := models.MustLoad("Xception")
	opt := exact.Solve(g, 4, exact.Options{MaxStates: 100_000_000})
	optMiB := float64(opt.Cost.PeakParamBytes) / (1 << 20)
	for _, r := range rows {
		if r.PeakMiB < optMiB-1e-9 {
			t.Errorf("%s beat the monotone optimum: %.3f < %.3f", r.Name, r.PeakMiB, optMiB)
		}
	}
	if _, err := HeuristicStudy("NoSuchModel", 4); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestRenderers(t *testing.T) {
	tbl := RenderTable([]string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	if !strings.Contains(tbl, "a    bb") || !strings.Contains(tbl, "333") {
		t.Errorf("table render:\n%s", tbl)
	}
	csv := RenderCSV([]string{"x", "y"}, [][]string{{"1", "2"}})
	if csv != "x,y\n1,2\n" {
		t.Errorf("csv render: %q", csv)
	}
}

func TestTrainQuickSmoke(t *testing.T) {
	tr, err := TrainQuick(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Model == nil {
		t.Fatal("no model")
	}
}

func TestFig3UnknownModel(t *testing.T) {
	tr := tinyTrainer(t)
	if _, err := Fig3(tr.Model, tr.EmbedCfg, Fig3Config{Models: []string{"nope"}}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := Fig4(tr.Model, tr.EmbedCfg, []string{"nope"}, nil, tpu.Coral()); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := Fig5(tr.Model, tr.EmbedCfg, []string{"nope"}, nil); err == nil {
		t.Fatal("unknown model accepted")
	}
}
