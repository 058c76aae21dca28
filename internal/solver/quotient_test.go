package solver

import (
	"context"
	"slices"
	"sync"
	"testing"

	"respect/internal/embed"
	"respect/internal/graph"
	"respect/internal/models"
	"respect/internal/ptrnet"
	"respect/internal/sched"
)

// TestSharedQuotientStress races the first reads of a graph's quotient: on
// a freshly built copy of a zoo model, whose quotient is not computed yet,
// 16 goroutines call sched.Condense while heur, compiler, exact and the
// fixture-bound rl solve the same graph. Every read sees one ClassOf
// array and one quotient graph, and every schedule is the one a
// sequential run produces. ResNet50's quotient has many class orders, so
// rl runs the network on it; DenseNet121's has one. Run in CI with -race
// -count=5.
func TestSharedQuotientStress(t *testing.T) {
	m, err := ptrnet.LoadFile("../ptrnet/testdata/fixture_seed1.weights")
	if err != nil {
		t.Fatal(err)
	}
	backends := []Scheduler{Heur(), Compiler(), Exact(), RL(m, embed.Default())}
	const stages, readers = 4, 16
	ctx := context.Background()
	for _, name := range []string{"ResNet50", "DenseNet121"} {
		fresh := func() *graph.Graph { return models.MustLoad(name).Clone().MustBuild() }
		want := make([]sched.Schedule, len(backends))
		for i, b := range backends {
			if want[i], err = b.Schedule(ctx, fresh(), stages); err != nil {
				t.Fatalf("%s %s: %v", name, b.Name(), err)
			}
		}

		g := fresh()
		start := make(chan struct{})
		quotients := make([]sched.Quotient, readers)
		got := make([]sched.Schedule, len(backends))
		errs := make([]error, len(backends))
		var wg sync.WaitGroup
		for i := range quotients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				quotients[i] = sched.Condense(g)
			}()
		}
		for i, b := range backends {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[i], errs[i] = b.Schedule(ctx, g, stages)
			}()
		}
		close(start)
		wg.Wait()

		q := sched.Condense(g)
		for i, r := range quotients {
			if &r.ClassOf[0] != &q.ClassOf[0] || r.Graph() != q.Graph() {
				t.Fatalf("%s: reader %d saw a second quotient", name, i)
			}
		}
		for i, b := range backends {
			if errs[i] != nil {
				t.Fatalf("%s %s: %v", name, b.Name(), errs[i])
			}
			if got[i].NumStages != want[i].NumStages || !slices.Equal(got[i].Stage, want[i].Stage) {
				t.Fatalf("%s %s: concurrent schedule %v, sequential %v", name, b.Name(), got[i].Stage, want[i].Stage)
			}
		}
	}
}
