package models

import (
	"sync"
	"sync/atomic"
	"testing"

	"respect/internal/graph"
)

// TestTableI asserts that every benchmark graph reproduces the paper's
// Table I statistics exactly.
func TestTableI(t *testing.T) {
	for name, want := range TableI {
		g, err := Load(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got := g.Stats(); got != want {
			t.Errorf("%s: stats = %+v, want %+v", name, got, want)
		}
	}
}

// TestExtraModels covers the two Figure 5-only architectures; expected
// values are the Keras layer counts of the reference implementations.
func TestExtraModels(t *testing.T) {
	want := map[string]graph.Stats{
		"ResNet50v2":   {V: 192, Deg: 2, Depth: 184},
		"Inception_v3": {V: 313, Deg: 4, Depth: 158},
	}
	for name, w := range want {
		g, err := Load(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := g.Stats(); got != w {
			t.Errorf("%s: stats = %+v, want %+v", name, got, w)
		}
	}
}

func TestParamTotalsRealistic(t *testing.T) {
	// Int8 parameter totals should be within a factor-two band of the
	// published parameter counts (weights dominate; epsilon for bn/bias).
	wantMB := map[string]float64{
		"ResNet50":          25.6,
		"ResNet101":         44.7,
		"ResNet152":         60.4,
		"DenseNet121":       8.1,
		"DenseNet169":       14.3,
		"DenseNet201":       20.2,
		"Xception":          22.9,
		"Inception_v3":      23.9,
		"InceptionResNetv2": 55.9,
	}
	for name, want := range wantMB {
		g := MustLoad(name)
		got := float64(g.TotalParamBytes()) / (1 << 20)
		if got < want*0.5 || got > want*2.0 {
			t.Errorf("%s: %.1f MiB params, expected near %.1f MiB", name, got, want)
		}
	}
}

func TestAllModelsWellFormed(t *testing.T) {
	for _, name := range Names() {
		g := MustLoad(name)
		if srcs := g.Sources(); len(srcs) != 1 {
			t.Errorf("%s: %d sources, want 1", name, len(srcs))
		}
		if sinks := g.Sinks(); len(sinks) != 1 {
			t.Errorf("%s: %d sinks, want 1", name, len(sinks))
		}
		if g.Node(0).Kind != graph.OpInput {
			t.Errorf("%s: node 0 is %v, want input", name, g.Node(0).Kind)
		}
		for v := 0; v < g.NumNodes(); v++ {
			n := g.Node(v)
			if n.ParamBytes < 0 || n.OutBytes <= 0 || n.MACs < 0 {
				t.Errorf("%s node %d (%s): bad attributes %+v", name, v, n.Name, n)
			}
		}
	}
}

func TestLoadUnknown(t *testing.T) {
	if _, err := Load("NoSuchNet"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestMustLoadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustLoad did not panic")
		}
	}()
	MustLoad("NoSuchNet")
}

func TestNamesSortedComplete(t *testing.T) {
	names := Names()
	if len(names) != 14 {
		t.Fatalf("have %d models, want 14: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names not sorted at %d", i)
		}
	}
	if len(TableINames()) != 10 || len(Figure5Names()) != 12 {
		t.Error("benchmark name lists wrong length")
	}
	for _, n := range Figure5Names() {
		if _, err := Load(n); err != nil {
			t.Errorf("Figure5 model %s: %v", n, err)
		}
	}
}

func TestShapeInference(t *testing.T) {
	// Spot-check conv arithmetic through the ResNet50 stem.
	g := MustLoad("ResNet50")
	// Node 2 is conv1_conv: 7x7 s2 on 230x230 padded input -> 112x112x64.
	n := g.Node(2)
	if n.Name != "conv1_conv" {
		t.Fatalf("node 2 = %s", n.Name)
	}
	if n.OutBytes != 112*112*64 {
		t.Errorf("conv1_conv out bytes = %d, want %d", n.OutBytes, 112*112*64)
	}
	wantParams := int64(7*7*3*64 + 64*4)
	if n.ParamBytes != wantParams {
		t.Errorf("conv1_conv params = %d, want %d", n.ParamBytes, wantParams)
	}
}

func TestConvOut(t *testing.T) {
	cases := []struct {
		in, k, s int
		same     bool
		want     int
	}{
		{224, 7, 2, true, 112},
		{230, 7, 2, false, 112},
		{112, 3, 2, true, 56},
		{299, 3, 2, false, 149},
		{5, 3, 1, false, 3},
	}
	for _, c := range cases {
		if got := convOut(c.in, c.k, c.s, c.same); got != c.want {
			t.Errorf("convOut(%d,%d,%d,%v) = %d, want %d", c.in, c.k, c.s, c.same, got, c.want)
		}
	}
}

// TestConcurrentFirstLoadsBuildOnce: Load is a lookup of one shared graph
// per name, built once even when the first loads race.
func TestConcurrentFirstLoadsBuildOnce(t *testing.T) {
	var builds atomic.Int64
	counted := make(map[string]func() (*graph.Graph, error), len(generators))
	for name, gen := range generators {
		counted[name] = func() (*graph.Graph, error) {
			builds.Add(1)
			return gen()
		}
	}
	saved := zoo
	zoo = memoize(counted) // a memo nothing has loaded from yet
	defer func() { zoo = saved }()

	const loaders = 8
	names := Names()
	got := make([][]*graph.Graph, loaders)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = make([]*graph.Graph, len(names))
			for j, name := range names {
				g, err := Load(name)
				if err != nil {
					t.Error(err)
				}
				got[i][j] = g
			}
		}()
	}
	wg.Wait()
	for i := 1; i < loaders; i++ {
		for j, name := range names {
			if got[i][j] != got[0][j] {
				t.Fatalf("%s: concurrent first loads returned two graphs", name)
			}
		}
	}
	if n := builds.Load(); n != int64(len(names)) {
		t.Fatalf("%d generator runs for %d models", n, len(names))
	}
	if allocs := testing.AllocsPerRun(100, func() { MustLoad("ResNet50") }); allocs != 0 {
		t.Fatalf("a repeated Load allocates %.0f times; it should be a lookup", allocs)
	}
}
