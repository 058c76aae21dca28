package bench

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"respect/internal/embed"
	"respect/internal/models"
	"respect/internal/ptrnet"
	"respect/internal/solver"
	"respect/internal/tpu"
)

// The golden tables were recorded by running this test with
// -update-golden. A difference is a finding to explain (a change that
// moves a row says which and why), not a reason to regenerate.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden paper tables under testdata/ from this tree")

// TestGoldenPaperTables regenerates Table I, Figures 4 and 5 on the
// -quick models and stages, and every served backend's schedule on every
// zoo model, all under the committed fixture agent, and compares each
// byte for byte with its CSV under testdata/. Nothing in them is timed:
// every exact solve is bounded by search states alone, and the simulator
// is deterministic, so a slow machine cannot change a row.
func TestGoldenPaperTables(t *testing.T) {
	m, err := ptrnet.LoadFile("../ptrnet/testdata/fixture_seed1.weights")
	if err != nil {
		t.Fatal(err)
	}
	ecfg := embed.Default()
	tables := []struct {
		file   string
		render func() (string, error)
	}{
		{"table1.csv", func() (string, error) { return tableICSV(TableI()), nil }},
		{"fig4.csv", func() (string, error) {
			rows, err := Fig4(m, ecfg, QuickModels, Stages, tpu.Coral())
			return Fig4CSV(rows), err
		}},
		{"fig5.csv", func() (string, error) {
			rows, err := Fig5(m, ecfg, QuickModels, Stages)
			return Fig5CSV(rows), err
		}},
		{"backends.csv", func() (string, error) { return backendsCSV(m, ecfg) }},
	}
	for _, tb := range tables {
		got, err := tb.render()
		if err != nil {
			t.Fatalf("%s: %v", tb.file, err)
		}
		path := filepath.Join("testdata", tb.file)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update-golden to record it)", err)
		}
		if got != string(want) {
			t.Errorf("%s differs from this tree's:\n%s", path, lineDiff(string(want), got))
		}
	}
}

// tableICSV renders Table I's rows.
func tableICSV(rows []TableIRow) string {
	var c [][]string
	for _, r := range rows {
		c = append(c, []string{r.Model, strconv.Itoa(r.Stats.V), strconv.Itoa(r.Stats.Deg),
			strconv.Itoa(r.Stats.Depth), strconv.FormatBool(r.Match)})
	}
	return RenderCSV([]string{"model", "V", "deg", "depth", "matches_paper"}, c)
}

// backendsCSV runs every served backend (heur, compiler, exact and rl
// bound to m) on every zoo model at 4, 5 and 6 stages, and renders one row
// per instance: each backend's peak parameter bytes, cross-stage bytes
// and simulated steady-state inferences per second on the Coral pipeline.
func backendsCSV(m *ptrnet.Model, ecfg embed.Config) (string, error) {
	backends := []solver.Scheduler{solver.Heur(), solver.Compiler(), solver.Exact(), solver.RL(m, ecfg)}
	header := []string{"model", "stages"}
	for _, b := range backends {
		header = append(header, b.Name()+"_peak_bytes", b.Name()+"_cross_bytes", b.Name()+"_sim_ips")
	}
	var rows [][]string
	for _, name := range models.Names() {
		g := models.MustLoad(name)
		for _, ns := range Stages {
			row := []string{name, strconv.Itoa(ns)}
			for _, b := range backends {
				s, err := b.Schedule(context.Background(), g, ns)
				if err != nil {
					return "", fmt.Errorf("%s/%d %s: %w", name, ns, b.Name(), err)
				}
				rep, err := tpu.Simulate(g, s, tpu.Coral())
				if err != nil {
					return "", fmt.Errorf("%s/%d %s: %w", name, ns, b.Name(), err)
				}
				c := s.Evaluate(g)
				row = append(row, strconv.FormatInt(c.PeakParamBytes, 10),
					strconv.FormatInt(c.CrossBytes, 10), fmt.Sprintf("%.3f", rep.Throughput()))
			}
			rows = append(rows, row)
		}
	}
	return RenderCSV(header, rows), nil
}

// lineDiff lists the lines where got departs from want.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %s\n  got  %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
