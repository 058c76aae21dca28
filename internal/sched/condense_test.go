package sched

import (
	"slices"
	"testing"

	"respect/internal/graph"
	"respect/internal/models"
)

// dagFromBytes decodes fuzz input into a DAG of 1-24 nodes and returns the
// bytes it did not consume. Edges always run from the lower node to the
// higher, so any byte string is a DAG.
func dagFromBytes(data []byte) (*graph.Graph, []byte) {
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

// checkQuotient asserts the structural contract of Condense on g.
func checkQuotient(t *testing.T, g *graph.Graph, q Quotient) {
	t.Helper()
	n, nc := g.NumNodes(), q.NumClasses()
	if len(q.ClassOf) != n {
		t.Fatalf("ClassOf covers %d nodes, graph has %d", len(q.ClassOf), n)
	}
	param := make([]int64, nc)
	size := make([]int, nc)
	for v, c := range q.ClassOf {
		if c < 0 || c >= nc {
			t.Fatalf("node %d in class %d outside [0,%d)", v, c, nc)
		}
		param[c] += g.Node(v).ParamBytes
		size[c]++
	}
	var total int64
	for c := 0; c < nc; c++ {
		if size[c] == 0 {
			t.Fatalf("class %d is empty", c)
		}
		if param[c] != q.ParamBytes[c] {
			t.Fatalf("class %d: ParamBytes %d, members sum to %d", c, q.ParamBytes[c], param[c])
		}
		total += q.ParamBytes[c]
	}
	if total != g.TotalParamBytes() {
		t.Fatalf("class sums add to %d, graph total is %d", total, g.TotalParamBytes())
	}

	// Quotient edges: topologically numbered, listed once, and exactly the
	// class pairs some graph edge joins.
	type pair struct{ a, b int }
	want := map[pair]bool{}
	for u := 0; u < n; u++ {
		for _, v := range g.Succ(u) {
			if q.ClassOf[v] != q.ClassOf[g.Succ(u)[0]] {
				t.Fatalf("children %d and %d of node %d are in different classes", g.Succ(u)[0], v, u)
			}
			if a, b := q.ClassOf[u], q.ClassOf[v]; a != b {
				want[pair{a, b}] = true
			}
		}
	}
	got := map[pair]bool{}
	for a := 0; a < nc; a++ {
		for _, b := range q.Succ(a) {
			if b <= a || b >= nc {
				t.Fatalf("quotient edge (%d,%d) is not forward inside [0,%d)", a, b, nc)
			}
			if got[pair{a, b}] {
				t.Fatalf("quotient edge (%d,%d) listed twice", a, b)
			}
			got[pair{a, b}] = true
			if !want[pair{a, b}] {
				t.Fatalf("quotient edge (%d,%d) has no graph edge behind it", a, b)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("quotient has %d edges, the graph induces %d", len(got), len(want))
	}
}

// checkQuotientGraph asserts that q.Graph is the graph AddNode and
// AddEdge build from the quotient: the same nodes, successor and
// predecessor lists, topological order and fingerprint.
func checkQuotientGraph(t *testing.T, q Quotient) {
	t.Helper()
	got := q.Graph()
	want := graph.New("q")
	for c := 0; c < q.NumClasses(); c++ {
		want.AddNode(graph.Node{ParamBytes: q.ParamBytes[c]})
	}
	for a := 0; a < q.NumClasses(); a++ {
		for _, b := range q.Succ(a) {
			want.AddEdge(a, b)
		}
	}
	want.MustBuild()
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("quotient graph has %d nodes, want %d", got.NumNodes(), want.NumNodes())
	}
	for c := 0; c < want.NumNodes(); c++ {
		if got.Node(c) != want.Node(c) {
			t.Fatalf("quotient graph node %d = %+v, want %+v", c, got.Node(c), want.Node(c))
		}
		if !slices.Equal(got.Succ(c), want.Succ(c)) || !slices.Equal(got.Pred(c), want.Pred(c)) {
			t.Fatalf("class %d: succ %v pred %v, want succ %v pred %v", c, got.Succ(c), got.Pred(c), want.Succ(c), want.Pred(c))
		}
	}
	if !slices.Equal(got.Topo(), want.Topo()) {
		t.Fatalf("quotient graph topo %v, want %v", got.Topo(), want.Topo())
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("quotient graph fingerprint %x, want %x", got.Fingerprint(), want.Fingerprint())
	}
}

func sameStages(a, b Schedule) bool {
	if a.NumStages != b.NumStages || len(a.Stage) != len(b.Stage) {
		return false
	}
	for v := range a.Stage {
		if a.Stage[v] != b.Stage[v] {
			return false
		}
	}
	return true
}

// checkPostProcess asserts PostProcess's contract on one prediction s.
func checkPostProcess(t *testing.T, g *graph.Graph, q Quotient, s Schedule) {
	t.Helper()
	r := PostProcess(g, s)
	if ref := postProcessRef(g, s); !sameStages(r, ref) {
		t.Fatalf("PostProcess %v, pre-refactor oracle %v (input %v)", r.Stage, ref.Stage, s.Stage)
	}
	if err := r.Validate(g); err != nil {
		t.Fatalf("repaired schedule invalid: %v", err)
	}
	if !r.SameStageChildrenOK(g) {
		t.Fatalf("repaired schedule splits children: %v", r.Stage)
	}
	rep := make([]int, q.NumClasses())
	for v, c := range q.ClassOf {
		rep[c] = r.Stage[v]
	}
	if !sameStages(r, q.Expand(Schedule{NumStages: r.NumStages, Stage: rep})) {
		t.Fatalf("repaired schedule is not constant on classes: %v over %v", r.Stage, q.ClassOf)
	}
	if again := PostProcess(g, r); !sameStages(again, r) {
		t.Fatalf("PostProcess is not idempotent: %v -> %v", r.Stage, again.Stage)
	}
}

// FuzzCondense checks, on DAGs built from the fuzz bytes, that the
// quotient is what it claims to be (its monotone assignments are deployable
// schedules), that its graph is the one AddNode and AddEdge would build,
// and that PostProcess over it is the repair it replaced.
// oneOrderRef reports whether q has one linear extension: Kahn's walk
// over the quotient never has two classes ready at once.
func oneOrderRef(q Quotient) bool {
	indeg := make([]int, q.NumClasses())
	for c := range indeg {
		for _, d := range q.Succ(c) {
			indeg[d]++
		}
	}
	var ready []int
	for c, k := range indeg {
		if k == 0 {
			ready = append(ready, c)
		}
	}
	for len(ready) > 0 {
		if len(ready) > 1 {
			return false
		}
		c := ready[0]
		ready = ready[:0]
		for _, d := range q.Succ(c) {
			if indeg[d]--; indeg[d] == 0 {
				ready = append(ready, d)
			}
		}
	}
	return true
}

func FuzzCondense(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 1, 2, 2, 3, 3, 4, 4, 3, 0, 1, 0, 2, 1, 3, 2, 3, 9, 9, 9})
	f.Add([]byte{11, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0,
		20, 0, 1, 0, 2, 1, 3, 2, 4, 3, 5, 4, 5, 0, 6, 6, 7, 6, 8, 7, 9, 8, 10, 1, 9, 2, 10, 5, 11, 3, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, rest := dagFromBytes(data)
		at := func(i int) int {
			if len(rest) == 0 {
				return i
			}
			return int(rest[i%len(rest)])
		}
		ns := 1 + at(0)%6
		q := Condense(g)
		checkQuotient(t, g, q)
		checkQuotientGraph(t, q)
		if got, want := q.OneOrder(), oneOrderRef(q); got != want {
			t.Fatalf("OneOrder = %v, want %v: %d classes", got, want, q.NumClasses())
		}

		// Any monotone assignment of the quotient is a deployable schedule,
		// which PostProcess leaves alone.
		qs := NewSchedule(q.NumClasses(), ns)
		for c := range qs.Stage {
			if st := at(1+c) % ns; st > qs.Stage[c] {
				qs.Stage[c] = st
			}
			for _, d := range q.Succ(c) {
				if qs.Stage[c] > qs.Stage[d] {
					qs.Stage[d] = qs.Stage[c]
				}
			}
		}
		dep := q.Expand(qs)
		if err := dep.Validate(g); err != nil {
			t.Fatalf("expanded monotone assignment invalid: %v", err)
		}
		if !dep.SameStageChildrenOK(g) {
			t.Fatalf("expanded monotone assignment splits children: %v", dep.Stage)
		}
		if r := PostProcess(g, dep); !sameStages(r, dep) {
			t.Fatalf("PostProcess changed a deployable schedule: %v -> %v", dep.Stage, r.Stage)
		}
		checkPostProcess(t, g, q, dep)

		// An arbitrary prediction, out-of-range stages included.
		s := NewSchedule(g.NumNodes(), ns)
		for v := range s.Stage {
			s.Stage[v] = at(7+v)%(ns+2) - 1
		}
		checkPostProcess(t, g, q, s)
	})
}

// TestCondenseZoo runs the quotient and repair contracts over every zoo
// model, with the DP-free round-robin prediction that splits every sibling
// group it can.
func TestCondenseZoo(t *testing.T) {
	for _, name := range models.Names() {
		g := models.MustLoad(name)
		q := Condense(g)
		checkQuotient(t, g, q)
		checkQuotientGraph(t, q)
		if got, want := q.OneOrder(), oneOrderRef(q); got != want {
			t.Fatalf("%s: OneOrder = %v, want %v", name, got, want)
		}
		for _, ns := range []int{1, 4, 6} {
			s := NewSchedule(g.NumNodes(), ns)
			for i, v := range g.TopoView() {
				s.Stage[v] = (i * 7) % ns
			}
			checkPostProcess(t, g, q, s)
		}
	}
}

// TestCondenseShapes pins the quotient of the shapes the exact solver's
// edge cases rest on.
func TestCondenseShapes(t *testing.T) {
	// A chain has no siblings: every node is its own class, in order.
	q := Condense(chain(t, 5))
	for v, c := range q.ClassOf {
		if c != v {
			t.Fatalf("chain: ClassOf = %v, want the identity", q.ClassOf)
		}
	}
	// An edgeless graph condenses to itself.
	g := graph.New("edgeless")
	for i := 0; i < 4; i++ {
		g.AddNode(graph.Node{ParamBytes: int64(i)})
	}
	if q := Condense(g.MustBuild()); q.NumClasses() != 4 || q.Graph().NumEdges() != 0 {
		t.Fatalf("edgeless: %d classes, %d edges", q.NumClasses(), q.Graph().NumEdges())
	}
	// In a diamond the two middle nodes are siblings: three classes.
	if q := Condense(diamond(t)); q.NumClasses() != 3 || q.ClassOf[1] != q.ClassOf[2] {
		t.Fatalf("diamond: ClassOf = %v", q.ClassOf)
	}
	// a -> {b, d}, b -> c, c -> d: b and d are siblings, and c sits between
	// them, a cycle b <= c <= d = b at the class level: everything below a
	// collapses into one class.
	g = graph.New("cycle")
	for i := 0; i < 4; i++ {
		g.AddNode(graph.Node{ParamBytes: 1})
	}
	g.AddEdge(0, 1)
	g.AddEdge(0, 3)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	q = Condense(g.MustBuild())
	if q.NumClasses() != 2 || q.ClassOf[1] != q.ClassOf[2] || q.ClassOf[2] != q.ClassOf[3] {
		t.Fatalf("class-level cycle not merged: ClassOf = %v", q.ClassOf)
	}
	if q.ParamBytes[q.ClassOf[1]] != 3 {
		t.Fatalf("merged class weighs %d, want 3", q.ParamBytes[q.ClassOf[1]])
	}

	// One order: the empty quotient, a chain, a diamond (a, {b, c}, d);
	// two independent nodes have two.
	pair := graph.New("pair")
	pair.AddNode(graph.Node{})
	pair.AddNode(graph.Node{})
	for _, c := range []struct {
		g    *graph.Graph
		want bool
	}{
		{graph.New("empty").MustBuild(), true},
		{chain(t, 5), true},
		{diamond(t), true},
		{pair.MustBuild(), false},
	} {
		if got := Condense(c.g).OneOrder(); got != c.want {
			t.Fatalf("%s: OneOrder = %v, want %v", c.g.Name, got, c.want)
		}
	}
}

// TestPostProcessAllocs gates the repair on a graph whose quotient is
// memoized: the class stages and the expanded schedule are all it
// allocates. (The map-based condensation it once ran cost 321 allocations
// on ResNet50, the dense-array one 24.)
func TestPostProcessAllocs(t *testing.T) {
	g := models.MustLoad("ResNet50")
	s := NewSchedule(g.NumNodes(), 4)
	for i, v := range g.TopoView() {
		s.Stage[v] = i * 4 / g.NumNodes()
	}
	if allocs := testing.AllocsPerRun(20, func() { PostProcess(g, s) }); allocs > 2 {
		t.Fatalf("PostProcess(ResNet50) allocates %.0f times per call, budget is 2", allocs)
	}
}

// TestCondenseAllocs: after the first call on a graph, Condense reads the
// quotient the graph memoized and allocates nothing.
func TestCondenseAllocs(t *testing.T) {
	g := models.MustLoad("ResNet50")
	Condense(g)
	if allocs := testing.AllocsPerRun(100, func() { Condense(g) }); allocs != 0 {
		t.Fatalf("Condense(ResNet50) allocates %.0f times per call after the first, want 0", allocs)
	}
}
