package graph

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// diamond builds the 4-node diamond a -> {b,c} -> d.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New("diamond")
	a := g.AddNode(Node{Name: "a", Kind: OpInput})
	b := g.AddNode(Node{Name: "b", Kind: OpConv, ParamBytes: 100})
	c := g.AddNode(Node{Name: "c", Kind: OpConv, ParamBytes: 200})
	d := g.AddNode(Node{Name: "d", Kind: OpAdd})
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(b, d)
	g.AddEdge(c, d)
	if err := g.Build(); err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestDiamondLevels(t *testing.T) {
	g := diamond(t)
	wantASAP := []int{0, 1, 1, 2}
	for v, want := range wantASAP {
		if got := g.ASAP(v); got != want {
			t.Errorf("ASAP(%d) = %d, want %d", v, got, want)
		}
	}
	if g.Depth() != 2 {
		t.Errorf("Depth = %d, want 2", g.Depth())
	}
	if g.MaxInDegree() != 2 {
		t.Errorf("MaxInDegree = %d, want 2", g.MaxInDegree())
	}
	if g.NumEdges() != 4 {
		t.Errorf("NumEdges = %d, want 4", g.NumEdges())
	}
}

func TestCycleDetection(t *testing.T) {
	g := New("cyclic")
	a := g.AddNode(Node{Name: "a"})
	b := g.AddNode(Node{Name: "b"})
	g.AddEdge(a, b)
	g.AddEdge(b, a)
	if err := g.Build(); err == nil {
		t.Fatal("Build accepted a cyclic graph")
	}
}

func TestDuplicateEdgeRejected(t *testing.T) {
	g := New("dup")
	a := g.AddNode(Node{})
	b := g.AddNode(Node{})
	g.AddEdge(a, b)
	g.AddEdge(a, b)
	if err := g.Build(); err == nil {
		t.Fatal("Build accepted duplicate edge")
	}
}

// TestFromCSR builds the diamond from offsets and successors and refuses
// offsets and edges that describe no graph, and what Build refuses.
func TestFromCSR(t *testing.T) {
	want := diamond(t)
	g, err := FromCSR("diamond", want.Nodes(), []int{0, 2, 3, 4, 4}, []int{1, 2, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if g.Fingerprint() != want.Fingerprint() || g.Depth() != want.Depth() {
		t.Fatalf("FromCSR diamond differs from AddNode/AddEdge's")
	}
	for v := 0; v < want.NumNodes(); v++ {
		if g.Node(v) != want.Node(v) || !slices.Equal(g.Succ(v), want.Succ(v)) || !slices.Equal(g.Pred(v), want.Pred(v)) {
			t.Fatalf("node %d: %+v succ %v pred %v, want %+v succ %v pred %v",
				v, g.Node(v), g.Succ(v), g.Pred(v), want.Node(v), want.Succ(v), want.Pred(v))
		}
	}
	for _, tc := range []struct {
		name        string
		start, succ []int
	}{
		{"short offsets", []int{0, 1}, []int{1}},
		{"offsets past the edges", []int{0, 1, 2}, []int{1}},
		{"decreasing offsets", []int{0, 2, 1, 2}, []int{1, 2}},
		{"offset past the edges", []int{0, 5, 2, 2}, []int{1, 2}},
		{"edge out of range", []int{0, 1, 1, 1}, []int{3}},
		{"self edge", []int{0, 1, 1, 1}, []int{0}},
		{"duplicate edge", []int{0, 2, 2, 2}, []int{1, 1}},
		{"cycle", []int{0, 1, 2, 2}, []int{1, 0}},
	} {
		if _, err := FromCSR(tc.name, make([]Node, 3), tc.start, tc.succ); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestAttributeOutOfRangeRejected(t *testing.T) {
	for _, tc := range []struct {
		node Node
		want string
	}{
		{Node{ParamBytes: -1}, "node 1: negative param_bytes"},
		{Node{OutBytes: -1}, "node 1: negative out_bytes"},
		{Node{MACs: -1}, "node 1: negative macs"},
		{Node{ParamBytes: math.MaxInt64}, "node 1: attribute totals overflow"},
		{Node{MACs: math.MaxInt64}, "node 1: attribute totals overflow"},
	} {
		g := New("range")
		g.AddEdge(g.AddNode(Node{ParamBytes: 1, OutBytes: 1, MACs: 1}), g.AddNode(tc.node))
		if err := g.Build(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Build error %v, want one naming %q", err, tc.want)
		}
	}
}

func TestSelfEdgePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge(v,v) did not panic")
		}
	}()
	g := New("self")
	a := g.AddNode(Node{})
	g.AddEdge(a, a)
}

func TestMutationAfterBuildPanics(t *testing.T) {
	g := diamond(t)
	defer func() {
		if recover() == nil {
			t.Fatal("AddNode after Build did not panic")
		}
	}()
	g.AddNode(Node{})
}

func TestTopoIsValidOrder(t *testing.T) {
	g := diamond(t)
	pos := make(map[int]int)
	for i, v := range g.Topo() {
		pos[v] = i
	}
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Succ(u) {
			if pos[u] >= pos[v] {
				t.Errorf("topo violates edge (%d,%d)", u, v)
			}
		}
	}
}

// randomDAG builds a random layered DAG with up to 20 nodes from a seed.
func randomDAG(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(19)
	g := New("rand")
	for i := 0; i < n; i++ {
		g.AddNode(Node{Name: "n", ParamBytes: int64(rng.Intn(1000))})
	}
	for v := 1; v < n; v++ {
		k := 1 + rng.Intn(3)
		seen := map[int]bool{}
		for j := 0; j < k; j++ {
			u := rng.Intn(v)
			if !seen[u] {
				seen[u] = true
				g.AddEdge(u, v)
			}
		}
	}
	if err := g.Build(); err != nil {
		panic(err)
	}
	return g
}

func TestQuickTopoAndLevels(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed)
		pos := make([]int, g.NumNodes())
		for i, v := range g.Topo() {
			pos[v] = i
		}
		for u := 0; u < g.NumNodes(); u++ {
			for _, v := range g.Succ(u) {
				if pos[u] >= pos[v] {
					return false
				}
				if g.ASAP(u) >= g.ASAP(v) {
					return false
				}
			}
			if g.ASAP(u) > g.Depth() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := diamond(t)
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
			g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for v := 0; v < g.NumNodes(); v++ {
		if g2.Node(v).ParamBytes != g.Node(v).ParamBytes {
			t.Errorf("node %d param bytes changed", v)
		}
		if g2.Node(v).Kind != g.Node(v).Kind {
			t.Errorf("node %d kind changed", v)
		}
	}
}

// TestReadJSONRejectsMalformedEdges regression-tests decoder inputs that
// must come back as errors, never reach the panicking AddEdge guards:
// the serving layer feeds ReadJSON raw client bytes. The self-edge case
// was found by fuzzing the /v1/batch decode path ("edges":[[]] decodes
// as the edge (0,0)).
func TestReadJSONRejectsMalformedEdges(t *testing.T) {
	cases := []struct{ name, doc string }{
		{"self edge", `{"nodes":[{"name":"a"},{"name":"b"}],"edges":[[0,0]]}`},
		{"empty edge pair", `{"nodes":[{"name":"a"},{"name":"b"}],"edges":[[]]}`},
		{"edge out of range", `{"nodes":[{"name":"a"}],"edges":[[0,7]]}`},
		{"negative endpoint", `{"nodes":[{"name":"a"},{"name":"b"}],"edges":[[-1,1]]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadJSON(strings.NewReader(tc.doc)); err == nil {
				t.Fatalf("ReadJSON accepted %s", tc.doc)
			}
		})
	}
}

func TestQuickJSONRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(seed)
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			return false
		}
		g2, err := ReadJSON(&buf)
		if err != nil {
			return false
		}
		return g2.NumNodes() == g.NumNodes() &&
			g2.NumEdges() == g.NumEdges() &&
			g2.Depth() == g.Depth() &&
			g2.MaxInDegree() == g.MaxInDegree()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDOT(t *testing.T) {
	g := diamond(t)
	dot := g.DOT([]int{0, 0, 1, 1})
	for _, want := range []string{"digraph", "n0 -> n1", "n2 -> n3", "s1"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := diamond(t)
	c := g.Clone()
	c.AddNode(Node{Name: "extra"})
	if err := c.Build(); err != nil {
		t.Fatal(err)
	}
	if c.NumNodes() != g.NumNodes()+1 {
		t.Errorf("clone node count %d, want %d", c.NumNodes(), g.NumNodes()+1)
	}
	if g.NumNodes() != 4 {
		t.Errorf("clone mutated original")
	}
}

func TestSourcesSinks(t *testing.T) {
	g := diamond(t)
	if s := g.Sources(); len(s) != 1 || s[0] != 0 {
		t.Errorf("Sources = %v, want [0]", s)
	}
	if s := g.Sinks(); len(s) != 1 || s[0] != 3 {
		t.Errorf("Sinks = %v, want [3]", s)
	}
}

func TestStats(t *testing.T) {
	g := diamond(t)
	st := g.Stats()
	if st.V != 4 || st.Deg != 2 || st.Depth != 2 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestOpKindString(t *testing.T) {
	if OpConv.String() != "conv" {
		t.Errorf("OpConv.String() = %q", OpConv.String())
	}
	if !strings.Contains(OpKind(200).String(), "200") {
		t.Errorf("unknown kind string = %q", OpKind(200).String())
	}
	if kindFromString("dwconv") != OpDepthwiseConv {
		t.Error("kindFromString(dwconv) mismatch")
	}
	if kindFromString("nonsense") != OpOther {
		t.Error("kindFromString fallback mismatch")
	}
}

func TestMerge(t *testing.T) {
	a := diamond(t)
	b := New("chain")
	x := b.AddNode(Node{Name: "x", ParamBytes: 7})
	y := b.AddNode(Node{Name: "y"})
	b.AddEdge(x, y)
	b.MustBuild()

	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() != 6 || m.NumEdges() != 5 {
		t.Fatalf("merged shape %d/%d", m.NumNodes(), m.NumEdges())
	}
	if m.Name != "diamond+chain" {
		t.Errorf("merged name %q", m.Name)
	}
	// Offsets: b's x is node 4 and keeps its attributes.
	if m.Node(4).ParamBytes != 7 || m.Node(4).Name != "chain/x" {
		t.Errorf("offset node wrong: %+v", m.Node(4))
	}
	if !m.IsEdge(4, 5) || m.IsEdge(3, 4) {
		t.Error("merged edges wrong")
	}
	if len(m.Sources()) != 2 {
		t.Errorf("merged sources %v", m.Sources())
	}
	// Depth is the max of the parts.
	if m.Depth() != 2 {
		t.Errorf("merged depth %d", m.Depth())
	}
}
