package sched

import (
	"math/rand"
	"testing"

	"respect/internal/graph"
	"respect/internal/models"
)

// TestDPSegmentMatchesReference pins the two-pointer dpSegment to the
// quadratic reference implementation bit-for-bit: same cuts, hence the
// same Stage slice, over every zoo model and a sweep of stage counts.
func TestDPSegmentMatchesReference(t *testing.T) {
	for _, name := range models.Names() {
		g := models.MustLoad(name)
		order := g.TopoView()
		for _, k := range []int{1, 2, 3, 4, 6, 8, 13} {
			fast := dpSegment(g, order, k)
			ref := dpSegmentRef(g, order, k)
			if fast.NumStages != ref.NumStages {
				t.Fatalf("%s k=%d: NumStages %d != %d", name, k, fast.NumStages, ref.NumStages)
			}
			for v := range fast.Stage {
				if fast.Stage[v] != ref.Stage[v] {
					t.Fatalf("%s k=%d: node %d staged %d by fast DP, %d by reference",
						name, k, v, fast.Stage[v], ref.Stage[v])
				}
			}
		}
	}
}

// TestDPSegmentMatchesReferenceRandom fuzzes random weights — including
// zero-weight plateaus, the case where a sloppy two-pointer tie-break
// would diverge from the reference's leftmost-minimizer choice.
func TestDPSegmentMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		g := graph.New("rand")
		for i := 0; i < n; i++ {
			w := int64(rng.Intn(50))
			if rng.Intn(3) == 0 {
				w = 0 // force plateaus
			}
			g.AddNode(graph.Node{Name: "n", ParamBytes: w, OutBytes: int64(rng.Intn(20))})
		}
		for i := 1; i < n; i++ {
			g.AddEdge(i-1, i)
		}
		g.MustBuild()
		order := g.TopoView()
		k := 1 + rng.Intn(8)
		fast := dpSegment(g, order, k)
		ref := dpSegmentRef(g, order, k)
		for v := range fast.Stage {
			if fast.Stage[v] != ref.Stage[v] {
				t.Fatalf("trial %d n=%d k=%d: node %d staged %d by fast DP, %d by reference",
					trial, n, k, v, fast.Stage[v], ref.Stage[v])
			}
		}
	}
}

// TestEvaluateStackAndHeapPathsAgree pins the small-stage stack fast path
// in Evaluate to the heap path by evaluating the same schedule at a stage
// count on each side of the threshold.
func TestEvaluateStackAndHeapPathsAgree(t *testing.T) {
	g := models.MustLoad("ResNet50")
	order := g.TopoView()
	for _, k := range []int{2, 16, 17, 24} {
		s := dpSegment(g, order, k)
		got := s.Evaluate(g)
		// Reference evaluation: direct per-stage accumulation.
		mem := make([]int64, k)
		var cross int64
		for v := 0; v < g.NumNodes(); v++ {
			mem[s.Stage[v]] += g.Node(v).ParamBytes
			for _, w := range g.Succ(v) {
				if s.Stage[w] != s.Stage[v] {
					cross += g.Node(v).OutBytes
					break
				}
			}
		}
		var peak int64
		for _, m := range mem {
			if m > peak {
				peak = m
			}
		}
		if got.PeakParamBytes != peak || got.CrossBytes != cross {
			t.Fatalf("k=%d: Evaluate=(%d,%d) reference=(%d,%d)",
				k, got.PeakParamBytes, got.CrossBytes, peak, cross)
		}
	}
}
