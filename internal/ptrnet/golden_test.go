package ptrnet

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"

	"respect/internal/embed"
	"respect/internal/graph"
	"respect/internal/models"
	"respect/internal/synth"
)

// The golden file was recorded from the decoder that evaluated attention
// with math.Tanh over every node (the parent of the commit that introduced
// the exp-factored, live-node kernel) by running this test there with
// -update-golden. A difference is a finding to explain, not a reason to
// regenerate.
var updateGolden = flag.Bool("update-golden", false, "rewrite "+goldenPath+" from this tree's decoder")

const (
	goldenPath = "testdata/golden_decode.jsonl"
	// fixturePath holds the agent the benchmark's rl_infer workload
	// serves with, as that commit trained it: respect.Train with six
	// iterations from seed 1 and every other knob at its default, saved
	// with Agent.Save. It is stored, not trained here, so the decode tests
	// need no training run; internal/rl's TestTrainReproducesFixture holds
	// training to it.
	fixturePath = "testdata/fixture_seed1.weights"
)

// goldenRecord is one graph's decode under every forward-only mode.
type goldenRecord struct {
	Graph      string  `json:"graph"`
	Nodes      int     `json:"nodes"`
	Greedy     []int   `json:"greedy"`
	GreedyLogP float64 `json:"greedy_logp"`
	Sample     []int   `json:"sample"`
	SampleLogP float64 `json:"sample_logp"`
	Beam8      []int   `json:"beam8"`
	Beam8LogP  float64 `json:"beam8_logp"`
}

// goldenGraphs is the 14 zoo models followed by rl_infer's synthetic
// populations (16 graphs of 30, 50 and 100 nodes, degree 4, seeds
// 20230710..12 as in benchmark/workload.go).
func goldenGraphs(t testing.TB) []*graph.Graph {
	t.Helper()
	var gs []*graph.Graph
	for _, name := range models.Names() {
		g, err := models.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
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
	return gs
}

func decodeGolden(m *Model, g *graph.Graph) goldenRecord {
	emb := embed.Graph(g, embed.Default())
	r := goldenRecord{Graph: g.Name, Nodes: g.NumNodes()}
	r.Greedy = m.Infer(emb)
	r.GreedyLogP = m.ScoreSeq(emb, r.Greedy)
	r.Sample = m.InferSample(emb, rand.New(rand.NewSource(1)))
	r.SampleLogP = m.ScoreSeq(emb, r.Sample)
	r.Beam8 = m.InferBeam(emb, 8)
	r.Beam8LogP = m.ScoreSeq(emb, r.Beam8)
	return r
}

// TestGoldenDecode holds every forward-only decode mode to the recorded
// sequences exactly, and the log-probabilities to 1e-9, on the kernels the
// CPU selects; TestGoldenDecodePortable covers the other ones.
func TestGoldenDecode(t *testing.T) { testGoldenDecode(t) }

func testGoldenDecode(t *testing.T) {
	m, err := LoadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	graphs := goldenGraphs(t)
	if *updateGolden {
		writeGolden(t, m, graphs)
		return
	}
	want := readGolden(t)
	if len(want) != len(graphs) {
		t.Fatalf("golden file has %d records, want %d", len(want), len(graphs))
	}
	for i, g := range graphs {
		w := want[i]
		if w.Graph != g.Name || w.Nodes != g.NumNodes() {
			t.Fatalf("record %d is %s/%d nodes, want %s/%d", i, w.Graph, w.Nodes, g.Name, g.NumNodes())
		}
		if testing.Short() && w.Nodes > 200 {
			continue
		}
		t.Run(g.Name, func(t *testing.T) {
			t.Parallel()
			got := decodeGolden(m, g)
			for _, c := range []struct {
				mode        string
				got, want   []int
				gotP, wantP float64
			}{
				{"greedy", got.Greedy, w.Greedy, got.GreedyLogP, w.GreedyLogP},
				{"sample", got.Sample, w.Sample, got.SampleLogP, w.SampleLogP},
				{"beam8", got.Beam8, w.Beam8, got.Beam8LogP, w.Beam8LogP},
			} {
				if !slices.Equal(c.got, c.want) {
					t.Errorf("%s: sequence differs from the golden one (first at step %d)", c.mode, firstDiff(c.got, c.want))
				}
				if math.Abs(c.gotP-c.wantP) > 1e-9 {
					t.Errorf("%s: log-probability %.12f, golden %.12f", c.mode, c.gotP, c.wantP)
				}
			}
		})
	}
}

func firstDiff(a, b []int) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

func writeGolden(t *testing.T, m *Model, graphs []*graph.Graph) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, g := range graphs {
		if err := enc.Encode(decodeGolden(m, g)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGolden(t *testing.T) []goldenRecord {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var recs []goldenRecord
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var r goldenRecord
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	return recs
}
