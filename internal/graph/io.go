package graph

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

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
// The graph keeps no reference to data.
//
// It is the one wire decoder: a single forward scan over the primitives
// of internal/jsonscan with the cursor in a local, which writes node
// attributes straight into the node slice, carves every name out of one
// backing string, and lays the edges out in one flat array, successors
// then predecessors, in document order (the fingerprint hashes
// successors in that order). A client can send anything, so every defect
// is an error and none a panic: malformed JSON, a number that is not an
// integer or overflows, an edge that is not two in-range distinct node
// IDs, a duplicate edge, a cycle. An empty document yields an empty
// graph; callers that need nodes check NumNodes.
//
// Against encoding/json into the WriteJSON structs, which this replaces,
// it is stricter in three ways: member names match case-sensitively, an
// edge is exactly two integers, and a second "nodes" or "edges" member
// is an error. Unknown members are still ignored and a null value still
// leaves its member as it was.
func ParseJSON(data []byte) (*Graph, int, error) {
	d := wireDecoder{data: data}
	end, err := d.document(jsonscan.Space(data, 0))
	if err != nil {
		return nil, 0, fmt.Errorf("graph: decode: %w", err)
	}
	g, err := d.graph()
	if err != nil {
		return nil, 0, err
	}
	return g, end, nil
}

// wireDecoder is the state of one ParseJSON call. Its methods take the
// offset of the token they start at, after any whitespace, and return
// the offset past what they consumed.
type wireDecoder struct {
	data  []byte
	name  string
	nodes []Node
	// names holds every node name back to back. A node keeps the end
	// offset of its name in ID until the names are carved out of one
	// string, which is when the IDs are assigned.
	names []byte
	edges []int // u0, v0, u1, v1, ... in document order
	// scratch is 2|V| zeroed ints for graph()'s degree counts and then
	// for Build, cut from the edge list's allocation when the nodes came
	// first.
	scratch []int
}

func (d *wireDecoder) graph() (*Graph, error) {
	n := len(d.nodes)
	if cap(d.nodes)-n > n/2+8 {
		d.nodes = append(make([]Node, 0, n), d.nodes...)
	}
	g := &Graph{Name: d.name, nodes: d.nodes}
	names := string(d.names)
	for v, lo := 0, 0; v < n; v++ {
		hi := g.nodes[v].ID
		g.nodes[v].ID, g.nodes[v].Name = v, names[lo:hi]
		lo = hi
	}

	// Flat adjacency: count degrees, cut one backing array into per-node
	// windows, successors first, then fill the windows in document order.
	m := len(d.edges) / 2
	scratch := d.scratch
	if len(scratch) < 2*n {
		scratch = make([]int, 2*n)
	}
	outDeg, inDeg := scratch[:n], scratch[n:2*n]
	for i := 0; i < 2*m; i += 2 {
		u, v := d.edges[i], d.edges[i+1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range", u, v)
		}
		if u == v {
			return nil, fmt.Errorf("graph: self edge at node %d", u)
		}
		outDeg[u]++
		inDeg[v]++
	}
	heads, flat := make([][]int, 2*n), make([]int, 2*m)
	g.succ, g.pred = heads[:n:n], heads[n:]
	windows(g.succ, flat[:m], outDeg)
	windows(g.pred, flat[m:], inDeg)
	for i := 0; i < 2*m; i += 2 {
		u, v := d.edges[i], d.edges[i+1]
		g.succ[u] = append(g.succ[u], v)
		g.pred[v] = append(g.pred[v], u)
	}
	if err := g.build(scratch); err != nil {
		return nil, err
	}
	return g, nil
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
func (d *wireDecoder) document(i int) (int, error) {
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
			if d.nodes != nil {
				return s.Pos, errors.New(`duplicate "nodes" member`)
			}
			s.Pos, err = d.nodeList(s.Pos)
		case "edges":
			if d.edges != nil {
				return s.Pos, errors.New(`duplicate "edges" member`)
			}
			s.Pos, err = d.edgeList(s.Pos)
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

// Sizing guesses for the node slice and the name bytes, from the length
// of what is left to scan. WriteJSON spends about 150 bytes per node
// (its share of the edge list included) and an eighth of a document on
// names; compacted documents are a third denser. A low guess costs a
// regrowth. A high one happens when the graph is an early element of a
// long batch, so the guess is capped and graph() trims what it overshot.
const (
	docBytesPerNode = 128
	docBytesPerName = 7
	maxNodesGuess   = 1024
)

// list decodes the array that starts at data[i], calling elem with the
// offset of each element; an error names the element as name[index].
func (d *wireDecoder) list(i int, name string, elem func(int) (int, error)) (int, error) {
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

// nodeList decodes the array of nodes that starts at data[i].
func (d *wireDecoder) nodeList(i int) (int, error) {
	guess := min((len(d.data)-i-1)/docBytesPerNode+1, maxNodesGuess)
	d.nodes = make([]Node, 0, guess)
	d.names = make([]byte, 0, guess*docBytesPerNode/docBytesPerName)
	return d.list(i, "nodes", d.node)
}

// node decodes the node object (or null, the zero node) that starts at
// data[i] onto d.nodes.
func (d *wireDecoder) node(i int) (int, error) {
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

// edgeList decodes the array of edges that starts at data[i].
func (d *wireDecoder) edgeList(i int) (int, error) {
	// DNN graphs are thin: |E| is a little over |V|. The list shares one
	// allocation with graph()'s scratch, which goes first so that a list
	// that outgrows its guess leaves the scratch where it is. When the
	// edges come before the nodes, the list grows from nothing.
	n := len(d.nodes)
	slab := make([]int, 2*n+3*n)
	d.scratch, d.edges = slab[:2*n:2*n], slab[2*n:2*n]
	return d.list(i, "edges", d.edge)
}

var errEdgeArity = errors.New("an edge is exactly two node IDs")

// edge decodes the [u, v] pair that starts at data[i]: exactly two
// integers.
func (d *wireDecoder) edge(i int) (int, error) {
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
