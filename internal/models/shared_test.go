// The zoo graphs Load hands out are shared by every caller in the
// process, so "nothing writes to a loaded graph" has to hold for all of
// them at once. This sweep runs every consumer of a graph on the shared
// pointers from several goroutines (under -race in CI) and checks the
// graphs afterwards against a snapshot taken before.
package models_test

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"respect/internal/compiler"
	"respect/internal/deploy"
	"respect/internal/embed"
	"respect/internal/graph"
	"respect/internal/models"
	"respect/internal/sched"
	"respect/internal/solver"
	"respect/internal/speculate"
	"respect/internal/tpu"
)

// snapshot is everything observable about a built graph, deep-copied.
type snapshot struct {
	name       string
	nodes      []graph.Node
	succ, pred [][]int
	topo       []int
	fp         uint64
}

func snapshotOf(g *graph.Graph) snapshot {
	s := snapshot{name: g.Name, nodes: g.Nodes(), topo: slices.Clone(g.TopoView()), fp: g.Fingerprint()}
	for v := 0; v < g.NumNodes(); v++ {
		s.succ = append(s.succ, slices.Clone(g.Succ(v)))
		s.pred = append(s.pred, slices.Clone(g.Pred(v)))
	}
	return s
}

func (s snapshot) equal(o snapshot) bool {
	eq := func(a, b [][]int) bool { return slices.EqualFunc(a, b, slices.Equal[[]int]) }
	return s.name == o.name && s.fp == o.fp && slices.Equal(s.nodes, o.nodes) &&
		slices.Equal(s.topo, o.topo) && eq(s.succ, o.succ) && eq(s.pred, o.pred)
}

// useGraph runs every reader of a graph the serving path has: each
// registered model-free backend (briefly: a deadline cuts the slow ones,
// which have read the graph by then), the embedding, post-processing,
// the simulator and speculation's mutations; and the paper's compiler
// and deployment flows. Those two grow with the parameter count and take
// no deadline (both quantize every weight), so they run on the models of
// at most 10 MB.
func useGraph(t *testing.T, g *graph.Graph) {
	const stages = 4
	light := g.TotalParamBytes() <= 10<<20
	for _, name := range solver.Names() {
		b, err := solver.Lookup(name)
		if err != nil {
			t.Error(err)
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		b.Schedule(ctx, g, stages) // the result does not matter here; the reads do
		cancel()
	}
	embed.Graph(g, embed.Default())
	heur, err := solver.Lookup("heur")
	if err != nil {
		t.Error(err)
		return
	}
	s, err := heur.Schedule(context.Background(), g, stages)
	if err != nil {
		t.Errorf("%s: heur: %v", g.Name, err)
		return
	}
	s = sched.PostProcess(g, s)
	if _, err := tpu.Simulate(g, s, tpu.Coral()); err != nil {
		t.Errorf("%s: simulate: %v", g.Name, err)
	}
	if light {
		if _, err := compiler.Compile(g, stages, compiler.DefaultOptions()); err != nil {
			t.Errorf("%s: compile: %v", g.Name, err)
		}
		if _, err := deploy.Partition(g, s); err != nil {
			t.Errorf("%s: partition: %v", g.Name, err)
		}
	}
	speculate.Mutations(g, stages, 8)
}

func TestSharedZooGraphsStayUnchanged(t *testing.T) {
	names := models.Names()
	graphs, err := models.LoadMany(names...)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]snapshot, len(graphs))
	for i, g := range graphs {
		before[i] = snapshotOf(g)
	}

	var wg sync.WaitGroup
	for worker := 0; worker < 4; worker++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker starts at a different model, so at any moment the
			// four are mostly on different graphs and sometimes on one.
			for i := range graphs {
				useGraph(t, graphs[(i+worker*len(graphs)/4)%len(graphs)])
			}
		}()
	}
	wg.Wait()

	for i, name := range names {
		g, err := models.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		if g != graphs[i] {
			t.Errorf("%s: Load returned a different graph after use", name)
		}
		if !before[i].equal(snapshotOf(g)) {
			t.Errorf("%s: the shared graph changed under its readers", name)
		}
	}
}
