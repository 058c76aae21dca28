// Package graph provides the directed-acyclic-graph representation of DNN
// computational graphs used throughout RESPECT, together with the
// topological machinery (ASAP levels, depth, the sibling-class quotient)
// that the scheduler, the exact solver and the graph embedding build on.
package graph

import (
	"fmt"
	"sort"
	"sync"
)

// OpKind identifies the operator class of a computation node. The scheduler
// itself only consumes memory attributes, but the Edge TPU simulator and the
// compiler emulation use the kind to pick compute/memory cost models.
type OpKind uint8

// Operator kinds found in quantized TFLite graphs of the evaluated models.
const (
	OpInput OpKind = iota
	OpConv
	OpDepthwiseConv
	OpDense
	OpBatchNorm
	OpRelu
	OpAdd
	OpConcat
	OpMaxPool
	OpAvgPool
	OpGlobalPool
	OpPad
	OpSoftmax
	OpMul
	OpOther
)

var opKindNames = [...]string{
	OpInput:         "input",
	OpConv:          "conv",
	OpDepthwiseConv: "dwconv",
	OpDense:         "dense",
	OpBatchNorm:     "batchnorm",
	OpRelu:          "relu",
	OpAdd:           "add",
	OpConcat:        "concat",
	OpMaxPool:       "maxpool",
	OpAvgPool:       "avgpool",
	OpGlobalPool:    "globalpool",
	OpPad:           "pad",
	OpSoftmax:       "softmax",
	OpMul:           "mul",
	OpOther:         "other",
}

func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("opkind(%d)", uint8(k))
}

// Node is a single operation in a computational graph.
type Node struct {
	// ID is the node index, dense in [0, |V|).
	ID int
	// Name is the operator instance name (e.g. "conv2_block1_1_conv").
	Name string
	// Kind is the operator class.
	Kind OpKind
	// ParamBytes is the quantized parameter (weight+bias) footprint in
	// bytes; this is what competes for the 8 MiB on-chip cache.
	ParamBytes int64
	// OutBytes is the output activation tensor size in bytes; edges
	// crossing a stage boundary transfer this amount over USB.
	OutBytes int64
	// MACs is the number of multiply-accumulate operations; the simulator
	// derives systolic-array compute latency from it.
	MACs int64
}

// Graph is an immutable-after-Build DAG. Construct with New, add nodes and
// edges, then call Build to validate and freeze derived data.
type Graph struct {
	// Name labels the graph (model name or synthetic sampler tag).
	Name string

	nodes []Node
	succ  [][]int
	pred  [][]int

	built    bool
	topo     []int // a topological order of node IDs
	asap     []int // ASAP level per node (source level 0)
	depth    int   // longest path length in edges
	maxInDeg int
	fp       uint64 // structural fingerprint, memoized at Build
	quotOnce sync.Once
	quot     *Quotient // the sibling-class quotient, memoized on first use
}

// New returns an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name}
}

// AddNode appends a node and returns its ID. The ID fields of the argument
// is overwritten with the assigned index.
func (g *Graph) AddNode(n Node) int {
	if g.built {
		panic("graph: AddNode after Build")
	}
	n.ID = len(g.nodes)
	g.nodes = append(g.nodes, n)
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	return n.ID
}

// AddEdge adds the dependency u -> v (v consumes u's output).
func (g *Graph) AddEdge(u, v int) {
	if g.built {
		panic("graph: AddEdge after Build")
	}
	if u < 0 || u >= len(g.nodes) || v < 0 || v >= len(g.nodes) {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range, |V|=%d", u, v, len(g.nodes)))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self edge at node %d", u))
	}
	g.succ[u] = append(g.succ[u], v)
	g.pred[v] = append(g.pred[v], u)
}

// Build validates acyclicity, computes topological order, ASAP levels
// and depth, and freezes the graph. It returns an error on cycles,
// duplicate edges, or node attributes out of range: in every built graph
// ParamBytes, OutBytes and MACs are non-negative and each sums over the
// nodes without overflowing int64, which the partition DP's two-pointer
// walk, the exact solver's bounds and the simulator rely on.
func (g *Graph) Build() error {
	if g.built {
		return nil
	}
	return g.build()
}

// build is Build on a graph that is not built yet, with check's scratch
// borrowed from the decoder's pool.
func (g *Graph) build() error {
	n := len(g.nodes)
	s := getScratch()
	defer putScratch(s)
	s.work = resize(s.work, 2*n)
	// The order and the levels share one allocation; the full slice
	// expression keeps the order from growing into the levels.
	levels := make([]int, 2*n)
	if _, err := check(g.Name, g.nodes, g.succ, g.pred, s.work, levels[:0:n]); err != nil {
		return err
	}
	g.freeze(levels, fingerprint(g.nodes, g.succ))
	return nil
}

// check holds nodes and their adjacency to what every built graph
// satisfies, and is the one check behind Build and the wire decoder:
// attributes non-negative with totals that fit int64, no duplicate edge,
// no cycle. Edge endpoints are in range and distinct on entry: AddEdge
// panics on others, and the decoder and FromCSR refuse them first. It
// appends a topological order to order and returns it. work is 2|V|
// ints, which it overwrites; errors name the graph as name.
func check(name string, nodes []Node, succ, pred [][]int, work, order []int) ([]int, error) {
	n := len(nodes)
	var params, outs, macs int64
	for v, nd := range nodes {
		switch {
		case nd.ParamBytes < 0:
			return nil, fmt.Errorf("graph %q: node %d: negative param_bytes", name, v)
		case nd.OutBytes < 0:
			return nil, fmt.Errorf("graph %q: node %d: negative out_bytes", name, v)
		case nd.MACs < 0:
			return nil, fmt.Errorf("graph %q: node %d: negative macs", name, v)
		}
		// Each term and each running total is non-negative, so a total
		// that turns negative has wrapped.
		params, outs, macs = params+nd.ParamBytes, outs+nd.OutBytes, macs+nd.MACs
		if params < 0 || outs < 0 || macs < 0 {
			return nil, fmt.Errorf("graph %q: node %d: attribute totals overflow int64", name, v)
		}
	}
	// seenFrom[w] == v+1 marks w as already listed among v's successors.
	seenFrom := work[:n]
	clear(seenFrom)
	for v := 0; v < n; v++ {
		for _, w := range succ[v] {
			if seenFrom[w] == v+1 {
				return nil, fmt.Errorf("graph %q: duplicate edge (%d,%d)", name, v, w)
			}
			seenFrom[w] = v + 1
		}
	}
	order = topoSort(succ, pred, order, work[:n], work[n:2*n:2*n])
	if len(order) != n {
		return nil, fmt.Errorf("graph %q: cycle detected (%d of %d nodes ordered)", name, len(order), n)
	}
	return order, nil
}

// freeze derives the levels, depth and maximum in-degree from the
// topological order in levels[:|V|] and marks g built with fingerprint
// fp. levels is 2|V| ints: the order, then the ASAP levels.
func (g *Graph) freeze(levels []int, fp uint64) {
	n := len(g.nodes)
	g.topo, g.asap = levels[:n:n], levels[n:]
	for _, v := range g.topo {
		lvl := 0
		for _, p := range g.pred[v] {
			if g.asap[p]+1 > lvl {
				lvl = g.asap[p] + 1
			}
		}
		g.asap[v] = lvl
	}
	maxLvl := 0
	for _, l := range g.asap {
		if l > maxLvl {
			maxLvl = l
		}
	}
	g.depth = maxLvl
	g.maxInDeg = 0
	for v := 0; v < n; v++ {
		if len(g.pred[v]) > g.maxInDeg {
			g.maxInDeg = len(g.pred[v])
		}
	}
	g.fp = fp
	g.built = true
}

// MustBuild is Build that panics on error; for use with generated graphs
// whose construction is tested.
func (g *Graph) MustBuild() *Graph {
	if err := g.Build(); err != nil {
		panic(err)
	}
	return g
}

// topoSort appends a topological order of the nodes to order, as far as
// one exists, using indeg and ready (|V| ints each) as scratch.
func topoSort(succ, pred [][]int, order, indeg, ready []int) []int {
	// Deterministic Kahn: smallest-ID-first among ready nodes. The queue
	// is a window sliding right over ready: it pops at the left and
	// pushes at most |V| nodes in all, so it never outgrows it. The
	// sources go in in ID order, so it starts sorted.
	ready = ready[:0]
	for v := range pred {
		if indeg[v] = len(pred[v]); indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	for len(ready) > 0 {
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		for _, w := range succ[v] {
			indeg[w]--
			if indeg[w] == 0 {
				// Insert keeping ready sorted (ready lists are short for
				// the thin DNN graphs we schedule).
				i := sort.SearchInts(ready, w)
				ready = append(ready, 0)
				copy(ready[i+1:], ready[i:])
				ready[i] = w
			}
		}
	}
	return order
}

func (g *Graph) mustBuilt() {
	if !g.built {
		panic("graph: derived query before Build")
	}
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int {
	m := 0
	for _, s := range g.succ {
		m += len(s)
	}
	return m
}

// Node returns the node with the given ID.
func (g *Graph) Node(id int) Node { return g.nodes[id] }

// Nodes returns a copy of the node slice.
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Succ returns the successor IDs of v. The returned slice must not be
// modified.
func (g *Graph) Succ(v int) []int { return g.succ[v] }

// Pred returns the predecessor IDs of v. The returned slice must not be
// modified.
func (g *Graph) Pred(v int) []int { return g.pred[v] }

// Topo returns a topological order (deterministic for a given graph).
func (g *Graph) Topo() []int {
	g.mustBuilt()
	out := make([]int, len(g.topo))
	copy(out, g.topo)
	return out
}

// TopoView returns the graph's memoized topological order without copying.
// Like Succ and Pred, the returned slice must not be modified; it is the
// allocation-free variant of Topo for solver hot paths that walk the order
// on every request.
func (g *Graph) TopoView() []int {
	g.mustBuilt()
	return g.topo
}

// ASAP returns the as-soon-as-possible level of v (sources at 0). This is
// the "absolute coordinate" of the paper's embedding.
func (g *Graph) ASAP(v int) int {
	g.mustBuilt()
	return g.asap[v]
}

// Depth returns the longest path length counted in edges (Table I "Depth").
func (g *Graph) Depth() int {
	g.mustBuilt()
	return g.depth
}

// MaxInDegree returns deg(V), the maximum number of incoming edges of any
// node (Table I "deg(V)").
func (g *Graph) MaxInDegree() int {
	g.mustBuilt()
	return g.maxInDeg
}

// TotalParamBytes returns the sum of parameter bytes over all nodes.
func (g *Graph) TotalParamBytes() int64 {
	var t int64
	for _, n := range g.nodes {
		t += n.ParamBytes
	}
	return t
}

// Sources returns the IDs of nodes with no predecessors.
func (g *Graph) Sources() []int {
	var out []int
	for v := range g.nodes {
		if len(g.pred[v]) == 0 {
			out = append(out, v)
		}
	}
	return out
}

// Sinks returns the IDs of nodes with no successors.
func (g *Graph) Sinks() []int {
	var out []int
	for v := range g.nodes {
		if len(g.succ[v]) == 0 {
			out = append(out, v)
		}
	}
	return out
}

// IsEdge reports whether (u,v) is an edge.
func (g *Graph) IsEdge(u, v int) bool {
	for _, w := range g.succ[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Clone returns a deep, unbuilt copy of the graph structure. The clone can
// be further mutated and must be Built before derived queries.
func (g *Graph) Clone() *Graph {
	c := New(g.Name)
	c.nodes = make([]Node, len(g.nodes))
	copy(c.nodes, g.nodes)
	c.succ = make([][]int, len(g.succ))
	c.pred = make([][]int, len(g.pred))
	for v := range g.succ {
		c.succ[v] = append([]int(nil), g.succ[v]...)
		c.pred[v] = append([]int(nil), g.pred[v]...)
	}
	return c
}

// Stats is the Table I statistics triple of a computational graph.
type Stats struct {
	V     int // |V|
	Deg   int // deg(V): max in-degree
	Depth int // longest path in edges
}

// Stats returns the Table I statistics of the graph.
func (g *Graph) Stats() Stats {
	g.mustBuilt()
	return Stats{V: g.NumNodes(), Deg: g.MaxInDegree(), Depth: g.Depth()}
}

// FromCSR builds the graph with the given nodes in which node v's
// successors are succ[start[v]:start[v+1]], in that order: the same graph
// AddNode over nodes and AddEdge over those lists, source by source, would
// build, without either. It is the constructor for a graph derived from
// another (the quotient DAG Graph.Quotient computes). The successor lists
// are windows of succ and the predecessors are laid out in one flat array,
// as ParseJSON lays them out. The graph takes nodes, assigning IDs by
// position, and keeps references into succ; the caller modifies neither
// afterwards. The errors are Build's, and those of a start or succ that
// does not describe edges between distinct nodes.
func FromCSR(name string, nodes []Node, start, succ []int) (*Graph, error) {
	n := len(nodes)
	if len(start) != n+1 || start[0] != 0 || start[n] != len(succ) {
		return nil, fmt.Errorf("graph %q: successor offsets do not cover %d nodes and %d edges", name, n, len(succ))
	}
	inDeg := make([]int, n)
	for u := 0; u < n; u++ {
		if start[u+1] < start[u] || start[u+1] > len(succ) {
			return nil, fmt.Errorf("graph %q: successor offsets out of order at node %d", name, u)
		}
		for _, v := range succ[start[u]:start[u+1]] {
			if v < 0 || v >= n || v == u {
				return nil, fmt.Errorf("graph %q: edge (%d,%d) is not between distinct nodes", name, u, v)
			}
			inDeg[v]++
		}
	}
	heads := make([][]int, 2*n)
	g := &Graph{Name: name, nodes: nodes, succ: heads[:n:n], pred: heads[n:]}
	windows(g.pred, make([]int, len(succ)), inDeg)
	for u := 0; u < n; u++ {
		g.nodes[u].ID = u
		g.succ[u] = succ[start[u]:start[u+1]:start[u+1]]
		for _, v := range g.succ[u] {
			g.pred[v] = append(g.pred[v], u)
		}
	}
	if err := g.build(); err != nil {
		return nil, err
	}
	return g, nil
}

// windows cuts flat into one window per node in out, node v's of
// capacity deg[v] and length zero. The full slice expressions keep a
// window from ever growing into the next, so filling them with append
// allocates nothing.
func windows(out [][]int, flat, deg []int) {
	for v, d := range deg {
		out[v], flat = flat[:0:d], flat[d:]
	}
}
