package graph

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"unsafe"

	"respect/internal/jsonscan"
)

// jsonGraph is the wire format of a Graph as WriteJSON encodes it;
// ParseJSON decodes the same format by hand.
type jsonGraph struct {
	Name  string     `json:"name"`
	Nodes []jsonNode `json:"nodes"`
	Edges [][2]int   `json:"edges"`
}

type jsonNode struct {
	Name       string `json:"name"`
	Kind       string `json:"kind"`
	ParamBytes int64  `json:"param_bytes"`
	OutBytes   int64  `json:"out_bytes"`
	MACs       int64  `json:"macs"`
}

// WriteJSON serializes the graph to w.
func (g *Graph) WriteJSON(w io.Writer) error {
	jg := jsonGraph{Name: g.Name}
	for _, n := range g.nodes {
		jg.Nodes = append(jg.Nodes, jsonNode{
			Name: n.Name, Kind: n.Kind.String(),
			ParamBytes: n.ParamBytes, OutBytes: n.OutBytes, MACs: n.MACs,
		})
	}
	for u := range g.succ {
		for _, v := range g.succ[u] {
			jg.Edges = append(jg.Edges, [2]int{u, v})
		}
	}
	sort.Slice(jg.Edges, func(i, j int) bool {
		if jg.Edges[i][0] != jg.Edges[j][0] {
			return jg.Edges[i][0] < jg.Edges[j][0]
		}
		return jg.Edges[i][1] < jg.Edges[j][1]
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(jg)
}

// ReadJSON parses a graph previously written with WriteJSON and builds
// it. Bytes after the document are ignored.
func ReadJSON(r io.Reader) (*Graph, error) {
	// io.Copy, not io.ReadAll: a reader that knows its length (a
	// bytes.Reader, a file) then fills the buffer in one allocation.
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
	g, _, err := ParseJSON(buf.Bytes())
	return g, err
}

// kindNamed is the kind whose String is name, or OpOther. A scan of the
// fifteen names beats a map: it hashes nothing, and the kinds a DNN graph
// is mostly made of come first.
func kindNamed(name []byte) OpKind {
	for k, s := range opKindNames {
		if string(name) == s {
			return OpKind(k)
		}
	}
	return OpOther
}

// ParseJSON decodes and builds the graph document at the start of data
// and returns the number of bytes it occupies, so a caller can decode a
// graph in place in the middle of a larger buffer (a request envelope).
// It is DecodeJSON, then Graph, then Release: the graph keeps no
// reference to data or to the decoder's scratch. A caller that may not
// need the graph itself (a schedule cache consulted by fingerprint)
// calls DecodeJSON and builds only when it must.
//
// Against encoding/json into the WriteJSON structs, which this replaces,
// it is stricter in three ways: member names match case-sensitively, an
// edge is exactly two integers, and a second "nodes" or "edges" member
// is an error. Unknown members are still ignored and a null value still
// leaves its member as it was.
func ParseJSON(data []byte) (*Graph, int, error) {
	d, end, err := DecodeJSON(data)
	if err != nil {
		return nil, 0, err
	}
	g := d.Graph()
	d.Release()
	return g, end, nil
}

// DecodeJSON decodes the graph document at the start of data into
// pooled scratch and checks it as Build checks a graph, without building
// one. It returns the number of bytes the document occupies.
//
// It is the one wire decoder: a single forward scan over the primitives
// of internal/jsonscan with the cursor in a local, which writes node
// attributes straight into the scratch node slice, copies every name
// into one byte slice, and lists the edges in document order. The edges
// are then laid out as adjacency windows in one flat array, successors
// then predecessors, in document order (the fingerprint hashes
// successors in that order). A client can send anything, so every defect
// is an error and none a panic: malformed JSON, a number that is not an
// integer or overflows, an edge that is not two in-range distinct node
// IDs, and whatever Build refuses (a duplicate edge, a cycle, an
// attribute out of range), with Build's message. An empty document is a
// document of no nodes; callers that need nodes check NumNodes.
//
// The Document is valid until Release, which the caller must call once;
// a graph its Graph built outlives it.
func DecodeJSON(data []byte) (*Document, int, error) {
	d := getScratch()
	d.data = data
	end, err := d.document(jsonscan.Space(data, 0))
	d.data = nil
	if err != nil {
		err = fmt.Errorf("graph: decode: %w", err)
	} else {
		err = d.index()
	}
	if err != nil {
		putScratch(d)
		return nil, 0, err
	}
	return d, end, nil
}

// Document is a graph document DecodeJSON decoded and checked but did
// not build. It holds what a schedule cache consults, the name, node
// count and fingerprint, and builds the graph on demand. A Document is
// the decoder's pooled scratch: it is not safe for concurrent use, and
// after Release it must not be used. Its decoding methods take the
// offset of the token they start at, after any whitespace, and return
// the offset past what they consumed.
type Document struct {
	name string
	fp   uint64
	g    *Graph // built by Graph, on first use

	// What the decoder fills: data while it scans; nodes, whose ID holds
	// the end offset of the node's name in names until Graph carves the
	// names out; the edge list u0, v0, u1, v1, ... in document order; and
	// whether a nodes or an edges member has been seen.
	data               []byte
	nodes              []Node
	names              []byte
	edges              []int
	sawNodes, sawEdges bool

	// What index lays out and check leaves: per node a successor window,
	// then per node a predecessor window, all cut from adj; check's work;
	// and the topological order.
	heads [][]int
	adj   []int
	work  []int
	topo  []int
}

// maxPooledScratchBytes bounds the scratch kept for reuse. The largest
// zoo document (InceptionResNetv2: 782 nodes, 879 edges, 13 KB of names)
// needs about 180 KB of it; scratch that a larger graph grew past the
// bound is left to the collector instead of pinning its peak size.
const maxPooledScratchBytes = 256 << 10

// scratchPool recycles decoding scratch. Build borrows it for check's
// work too.
var scratchPool = sync.Pool{New: func() any { return new(Document) }}

// getScratch takes scratch from the pool; putScratch hands it back.
func getScratch() *Document { return scratchPool.Get().(*Document) }

func putScratch(d *Document) {
	size := cap(d.nodes)*int(unsafe.Sizeof(Node{})) + cap(d.names) +
		cap(d.heads)*int(unsafe.Sizeof([]int(nil))) +
		(cap(d.edges)+cap(d.adj)+cap(d.work)+cap(d.topo))*int(unsafe.Sizeof(0))
	if size <= maxPooledScratchBytes {
		d.reset()
		scratchPool.Put(d)
	}
}

// reset empties d for the next decode, keeping its capacity. What it
// keeps holds no reference outside d: nodes carry no names, and the
// windows point into adj.
func (d *Document) reset() {
	*d = Document{
		nodes: d.nodes[:0], names: d.names[:0], edges: d.edges[:0],
		heads: d.heads, adj: d.adj, work: d.work, topo: d.topo,
	}
}

// resize returns buf with length n, reallocated when too small. The
// contents are not cleared.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Release returns d's scratch to the pool.
func (d *Document) Release() { putScratch(d) }

// Name returns the document's graph name.
func (d *Document) Name() string { return d.name }

// NumNodes returns the document's node count.
func (d *Document) NumNodes() int { return len(d.nodes) }

// Fingerprint returns the fingerprint the built graph will have.
func (d *Document) Fingerprint() uint64 { return d.fp }

// index lays the decoded edges out as adjacency windows, checks the graph
// as Build would, and fingerprints it.
func (d *Document) index() error {
	n, m := len(d.nodes), len(d.edges)/2
	d.work = resize(d.work, 2*n)
	deg := d.work
	clear(deg)
	outDeg, inDeg := deg[:n], deg[n:]
	for i := 0; i < 2*m; i += 2 {
		u, v := d.edges[i], d.edges[i+1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return fmt.Errorf("graph: edge (%d,%d) out of range", u, v)
		}
		if u == v {
			return fmt.Errorf("graph: self edge at node %d", u)
		}
		outDeg[u]++
		inDeg[v]++
	}
	d.heads, d.adj = resize(d.heads, 2*n), resize(d.adj, 2*m)
	succ, pred := d.heads[:n:n], d.heads[n:]
	windows(succ, d.adj[:m], outDeg)
	windows(pred, d.adj[m:], inDeg)
	for i := 0; i < 2*m; i += 2 {
		u, v := d.edges[i], d.edges[i+1]
		succ[u] = append(succ[u], v)
		pred[v] = append(pred[v], u)
	}
	var err error
	if d.topo, err = check(d.name, d.nodes, succ, pred, deg, resize(d.topo, n)[:0]); err != nil {
		return err
	}
	d.fp = fingerprint(d.nodes, succ)
	return nil
}

// Graph builds the document's graph, on the first call, from what
// DecodeJSON already laid out and checked: it copies the nodes, the names
// and the adjacency into allocations of their exact size and derives the
// levels from the order the check found, without scanning or checking
// anything again. Later calls return the same graph, which keeps no
// reference to the document.
func (d *Document) Graph() *Graph {
	if d.g != nil {
		return d.g
	}
	n := len(d.nodes)
	g := &Graph{Name: d.name, nodes: make([]Node, n)}
	names := string(d.names)
	for v, lo := 0, 0; v < n; v++ {
		nd := d.nodes[v]
		hi := nd.ID
		nd.ID, nd.Name = v, names[lo:hi]
		g.nodes[v] = nd
		lo = hi
	}
	heads, adj := make([][]int, 2*n), make([]int, len(d.adj))
	copy(adj, d.adj)
	for i, off := 0, 0; i < 2*n; i++ {
		k := len(d.heads[i])
		heads[i], off = adj[off:off+k:off+k], off+k
	}
	g.succ, g.pred = heads[:n:n], heads[n:]
	levels := make([]int, 2*n)
	copy(levels, d.topo)
	g.freeze(levels, d.fp)
	d.g = g
	return g
}

// foldsTo reports whether key is a member name the decoder knows in
// another letter case. encoding/json would match it; ParseJSON refuses
// it, because ignoring it as unknown would silently drop what the client
// meant to send.
func foldsTo(key []byte, known ...string) error {
	for _, name := range known {
		if bytes.EqualFold(key, []byte(name)) {
			return fmt.Errorf("member %q must be spelled %q", key, name)
		}
	}
	return nil
}

// document decodes the top-level object, or null, into d. It runs once
// per document, so it walks with a Scanner; the node and edge loops under
// it keep their cursor in a local. Here and in node, a null value leaves
// its member as it was, and of a repeated scalar member the last one
// counts, both as in encoding/json.
func (d *Document) document(i int) (int, error) {
	s := jsonscan.Scanner{Data: d.data, Pos: i}
	if s.Null() {
		return s.Pos, nil
	}
	if err := s.Open('{'); err != nil {
		return s.Pos, err
	}
	for first := true; ; first = false {
		key, ok, err := s.Member(first)
		if !ok {
			return s.Pos, err
		}
		if s.Null() {
			continue
		}
		switch string(key) {
		case "name":
			var name []byte
			if name, err = s.String(); err == nil {
				d.name = string(name)
			}
		case "nodes":
			if d.sawNodes {
				return s.Pos, errors.New(`duplicate "nodes" member`)
			}
			d.sawNodes = true
			s.Pos, err = d.list(s.Pos, "nodes", d.node)
		case "edges":
			if d.sawEdges {
				return s.Pos, errors.New(`duplicate "edges" member`)
			}
			d.sawEdges = true
			s.Pos, err = d.list(s.Pos, "edges", d.edge)
		default:
			if err = foldsTo(key, "name", "nodes", "edges"); err == nil {
				err = s.Skip()
			}
		}
		if err != nil {
			return s.Pos, err
		}
	}
}

// list decodes the array that starts at data[i], calling elem with the
// offset of each element; an error names the element as name[index].
func (d *Document) list(i int, name string, elem func(int) (int, error)) (int, error) {
	data := d.data
	if i == len(data) || data[i] != '[' {
		return i, jsonscan.Unexpected(data, i, '[')
	}
	i++
	for k := 0; ; k++ {
		if i = jsonscan.Space(data, i); i < len(data) && data[i] == ']' {
			return i + 1, nil
		}
		if k > 0 {
			if i == len(data) || data[i] != ',' {
				return i, jsonscan.Unexpected(data, i, ']')
			}
			i = jsonscan.Space(data, i+1)
		}
		var err error
		if i, err = elem(i); err != nil {
			return i, fmt.Errorf("%s[%d]: %w", name, k, err)
		}
	}
}

// node decodes the node object (or null, the zero node) that starts at
// data[i] onto d.nodes.
func (d *Document) node(i int) (int, error) {
	data := d.data
	n := Node{Kind: OpOther} // what a missing or unknown "kind" decodes to
	start := len(d.names)
	var null bool
	if i, null = jsonscan.Null(data, i); !null {
		if i == len(data) || data[i] != '{' {
			return i, jsonscan.Unexpected(data, i, '{')
		}
		i++
		for first := true; ; first = false {
			if i = jsonscan.Space(data, i); i < len(data) && data[i] == '}' {
				i++
				break
			}
			if !first {
				if i == len(data) || data[i] != ',' {
					return i, jsonscan.Unexpected(data, i, '}')
				}
				i = jsonscan.Space(data, i+1)
			}
			key, end, err := jsonscan.String(data, i)
			if err != nil {
				return end, err
			}
			if i = jsonscan.Space(data, end); i == len(data) || data[i] != ':' {
				return i, jsonscan.Unexpected(data, i, ':')
			}
			if i, null = jsonscan.Null(data, jsonscan.Space(data, i+1)); null {
				continue
			}
			switch string(key) {
			case "name":
				var name []byte
				if name, i, err = jsonscan.String(data, i); err == nil {
					d.names = append(d.names[:start], name...)
				}
			case "kind":
				var kind []byte
				if kind, i, err = jsonscan.String(data, i); err == nil {
					n.Kind = kindNamed(kind)
				}
			case "param_bytes":
				n.ParamBytes, i, err = jsonscan.Int(data, i)
			case "out_bytes":
				n.OutBytes, i, err = jsonscan.Int(data, i)
			case "macs":
				n.MACs, i, err = jsonscan.Int(data, i)
			default:
				if err = foldsTo(key, "name", "kind", "param_bytes", "out_bytes", "macs"); err == nil {
					i, err = jsonscan.Skip(data, i)
				}
			}
			if err != nil {
				return i, fmt.Errorf("%s: %w", key, err)
			}
		}
	}
	n.ID = len(d.names)
	d.nodes = append(d.nodes, n)
	return i, nil
}

var errEdgeArity = errors.New("an edge is exactly two node IDs")

// edge decodes the [u, v] pair that starts at data[i]: exactly two
// integers.
func (d *Document) edge(i int) (int, error) {
	data := d.data
	if i == len(data) || data[i] != '[' {
		return i, jsonscan.Unexpected(data, i, '[')
	}
	if i = jsonscan.Space(data, i+1); i < len(data) && data[i] == ']' {
		return i, errEdgeArity
	}
	u, i, err := jsonscan.Int(data, i)
	if err != nil {
		return i, err
	}
	switch i = jsonscan.Space(data, i); {
	case i < len(data) && data[i] == ']':
		return i, errEdgeArity
	case i == len(data) || data[i] != ',':
		return i, jsonscan.Unexpected(data, i, ']')
	}
	v, i, err := jsonscan.Int(data, jsonscan.Space(data, i+1))
	if err != nil {
		return i, err
	}
	switch i = jsonscan.Space(data, i); {
	case i < len(data) && data[i] == ',':
		return i, errEdgeArity
	case i == len(data) || data[i] != ']':
		return i, jsonscan.Unexpected(data, i, ']')
	}
	d.edges = append(d.edges, int(u), int(v))
	return i + 1, nil
}

// DOT renders the graph in Graphviz format; stage, if non-nil, colors nodes
// by pipeline stage assignment.
func (g *Graph) DOT(stage []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [shape=box, style=filled];\n", g.Name)
	palette := []string{"#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f", "#cab2d6", "#ffff99", "#1f78b4", "#33a02c"}
	for _, n := range g.nodes {
		color := "#eeeeee"
		label := fmt.Sprintf("%s\\n%s", n.Name, n.Kind)
		if stage != nil && n.ID < len(stage) {
			color = palette[stage[n.ID]%len(palette)]
			label = fmt.Sprintf("%s\\n%s s%d", n.Name, n.Kind, stage[n.ID])
		}
		fmt.Fprintf(&b, "  n%d [label=\"%s\", fillcolor=%q];\n", n.ID, label, color)
	}
	for u := range g.succ {
		for _, v := range g.succ[u] {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", u, v)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
