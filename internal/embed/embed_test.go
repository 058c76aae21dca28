package embed

import (
	"testing"

	"respect/internal/graph"
	"respect/internal/models"
	"respect/internal/synth"
)

func diamond(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("d")
	g.AddNode(graph.Node{Name: "in"})
	g.AddNode(graph.Node{Name: "l", ParamBytes: 100})
	g.AddNode(graph.Node{Name: "r", ParamBytes: 50})
	g.AddNode(graph.Node{Name: "out"})
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	return g.MustBuild()
}

func TestDim(t *testing.T) {
	if d := Default().Dim(); d != 7 {
		t.Fatalf("default dim = %d, want 7", d)
	}
	if d := (Config{Parents: 0, IncludeMemory: false}).Dim(); d != 2 {
		t.Fatalf("minimal dim = %d, want 2", d)
	}
}

func TestRowsAndWidths(t *testing.T) {
	g := diamond(t)
	e := Graph(g, Default())
	if len(e) != 4 {
		t.Fatalf("%d rows", len(e))
	}
	for v, row := range e {
		if len(row) != 7 {
			t.Fatalf("node %d row width %d", v, len(row))
		}
	}
}

func TestLevelsAndSentinels(t *testing.T) {
	g := diamond(t)
	e := Graph(g, Default())
	// Source: level 0, no parents -> sentinel (0, -1) twice.
	if e[0][0] != 0 {
		t.Errorf("source level = %v", e[0][0])
	}
	if e[0][2] != 0 || e[0][3] != -1 || e[0][4] != 0 || e[0][5] != -1 {
		t.Errorf("source parent sentinels = %v", e[0][2:6])
	}
	// Sink at level 2/3 with two real parents.
	if e[3][0] <= e[1][0] {
		t.Errorf("sink level %v not deeper than mid %v", e[3][0], e[1][0])
	}
	if e[3][3] == -1 || e[3][5] == -1 {
		t.Errorf("sink should have two real parents: %v", e[3][2:6])
	}
}

func TestMemoryColumnNormalized(t *testing.T) {
	g := diamond(t)
	e := Graph(g, Default())
	if e[1][6] != 1 {
		t.Errorf("max-mem node column = %v, want 1", e[1][6])
	}
	if e[2][6] != 0.5 {
		t.Errorf("half-mem node column = %v, want 0.5", e[2][6])
	}
	if e[0][6] != 0 {
		t.Errorf("zero-mem node column = %v", e[0][6])
	}
}

func TestMemoryAblation(t *testing.T) {
	g := diamond(t)
	cfg := Default()
	cfg.IncludeMemory = false
	e := Graph(g, cfg)
	if len(e[0]) != 6 {
		t.Fatalf("width %d without memory", len(e[0]))
	}
}

func TestAllColumnsBounded(t *testing.T) {
	s, err := synth.NewSampler(synth.DefaultConfig(6), 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		g := s.Sample()
		for _, row := range Graph(g, Default()) {
			for j, v := range row {
				if v < -1 || v > 1 {
					t.Fatalf("column %d = %v out of [-1,1]", j, v)
				}
			}
		}
	}
}

func TestRealModelEmbedding(t *testing.T) {
	g := models.MustLoad("ResNet50")
	e := Graph(g, Default())
	if len(e) != 177 {
		t.Fatalf("rows = %d", len(e))
	}
	// Parent levels must be strictly below the node's own level.
	for v, row := range e {
		if row[3] != -1 && row[2] >= row[0] {
			t.Fatalf("node %d: parent level %v >= own %v", v, row[2], row[0])
		}
	}
}

func TestParentsOrderedByLevel(t *testing.T) {
	// Node with parents at different levels: first pair must be deeper.
	g := graph.New("p")
	g.AddNode(graph.Node{Name: "a"})
	g.AddNode(graph.Node{Name: "b"})
	g.AddNode(graph.Node{Name: "c"})
	g.AddEdge(0, 1) // b at level 1
	g.AddEdge(0, 2)
	g.AddEdge(1, 2) // c has parents a(0) and b(1)
	g.MustBuild()
	e := Graph(g, Default())
	if e[2][2] <= e[2][4] {
		t.Fatalf("parents not level-ordered: %v", e[2][2:6])
	}
}
