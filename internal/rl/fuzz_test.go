package rl

import (
	"context"
	"testing"

	"respect/internal/embed"
	"respect/internal/graph"
	"respect/internal/ptrnet"
	"respect/internal/sched"
)

// fuzzDAG decodes fuzz input into a DAG of 1-24 nodes and returns the
// bytes it did not consume. Edges always run from the lower node to the
// higher, so any byte string is a DAG.
func fuzzDAG(data []byte) (*graph.Graph, []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := 1 + int(next())%24
	g := graph.New("fuzz")
	for v := 0; v < n; v++ {
		g.AddNode(graph.Node{ParamBytes: int64(next()), OutBytes: 1 + int64(next())})
	}
	for e := int(next()) % 64; e > 0; e-- {
		u, v := int(next())%n, int(next())%n
		if u > v {
			u, v = v, u
		}
		if u != v && !g.IsEdge(u, v) {
			g.AddEdge(u, v)
		}
	}
	return g.MustBuild(), data
}

// FuzzClassSchedule runs the greedy and sampled decoders over the sibling-class
// quotient of DAGs built from the fuzz bytes, with a tiny seeded model:
// none may fail or panic, and every schedule must be deployable as it
// comes out, with no repair after it. Where the quotient has one order,
// the schedules must be the ones the network's decodes deploy to.
func FuzzClassSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 1, 2, 2, 3, 3, 4, 4, 3, 0, 1, 0, 2, 1, 3, 2, 3, 9, 9, 9})
	f.Add([]byte{11, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0,
		20, 0, 1, 0, 2, 1, 3, 2, 4, 3, 5, 4, 5, 0, 6, 6, 7, 6, 8, 7, 9, 8, 10, 1, 9, 2, 10, 5, 11, 3, 0, 2})
	ecfg := embed.Default()
	f.Fuzz(func(t *testing.T, data []byte) {
		g, rest := fuzzDAG(data)
		at := func(i int) int {
			if i >= len(rest) {
				return i
			}
			return int(rest[i])
		}
		ns := 1 + at(0)%6
		m := ptrnet.New(ptrnet.Config{InputDim: ecfg.Dim(), Hidden: 8, Seed: int64(at(1))})
		ctx := context.Background()
		check := func(decoder string, s sched.Schedule, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", decoder, err)
			}
			if s.NumStages != ns {
				t.Fatalf("%s: %d stages, want %d", decoder, s.NumStages, ns)
			}
			if err := s.Validate(g); err != nil {
				t.Fatalf("%s: %v", decoder, err)
			}
			if !s.SameStageChildrenOK(g) {
				t.Fatalf("%s: children split across stages: %v", decoder, s.Stage)
			}
		}
		greedy, err := ScheduleCtx(ctx, m, ecfg, g, ns)
		check("greedy", greedy, err)
		samples, seed := 1+at(2)%4, int64(at(3))
		sampled, err := ScheduleSampledCtx(ctx, m, ecfg, g, ns, samples, seed)
		check("sampled", sampled, err)
		if greedy.Evaluate(g).Less(sampled.Evaluate(g)) {
			t.Fatalf("sampled %v is worse than the greedy rollout it includes, %v", sampled.Evaluate(g), greedy.Evaluate(g))
		}

		c, err := condense(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		if c.q.OneOrder() {
			want, err := c.greedy(ctx, m, ecfg, ns)
			sameResult(t, "greedy", greedy, want, nil, err)
			want, err = c.sampled(ctx, m, ecfg, g, ns, samples, seed)
			sameResult(t, "sampled", sampled, want, nil, err)
		}
	})
}
