package graph

import "testing"

func fpGraph(name string, params []int64, edges [][2]int) *Graph {
	g := New(name)
	for _, p := range params {
		g.AddNode(Node{ParamBytes: p, OutBytes: 10})
	}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g.MustBuild()
}

func TestFingerprintDeterministic(t *testing.T) {
	a := fpGraph("a", []int64{5, 7, 9}, [][2]int{{0, 1}, {1, 2}})
	if a.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint not deterministic")
	}
	// Name must not influence the fingerprint: structurally identical
	// graphs share schedules.
	b := fpGraph("b", []int64{5, 7, 9}, [][2]int{{0, 1}, {1, 2}})
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical structure, different fingerprints")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := fpGraph("x", []int64{5, 7, 9}, [][2]int{{0, 1}, {1, 2}})
	paramChanged := fpGraph("x", []int64{5, 8, 9}, [][2]int{{0, 1}, {1, 2}})
	edgeChanged := fpGraph("x", []int64{5, 7, 9}, [][2]int{{0, 1}, {0, 2}})
	extraEdge := fpGraph("x", []int64{5, 7, 9}, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	if base.Fingerprint() == paramChanged.Fingerprint() {
		t.Fatal("parameter change not reflected")
	}
	if base.Fingerprint() == edgeChanged.Fingerprint() {
		t.Fatal("edge rewiring not reflected")
	}
	if base.Fingerprint() == extraEdge.Fingerprint() {
		t.Fatal("added edge not reflected")
	}
}

// TestFingerprintAllocFree: Build computes the fingerprint once, so the
// per-request reads on the serving path (cache keys, popularity taps, hit
// attribution) allocate nothing.
func TestFingerprintAllocFree(t *testing.T) {
	g := randomDAG(1)
	if allocs := testing.AllocsPerRun(100, func() { g.Fingerprint() }); allocs != 0 {
		t.Fatalf("Fingerprint on a built graph allocates %v times per call, want 0", allocs)
	}
}
