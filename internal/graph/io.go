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

// opKindByName inverts opKindNames for the decoder.
var opKindByName = func() map[string]OpKind {
	m := make(map[string]OpKind, len(opKindNames))
	for k, name := range opKindNames {
		m[name] = OpKind(k)
	}
	return m
}()

// ParseJSON decodes and builds the graph document at the start of data
// and returns the number of bytes it occupies, so a caller can decode a
// graph in place in the middle of a larger buffer (a request envelope).
// The graph keeps no reference to data.
//
// It is the one wire decoder: a single forward scan that writes node
// attributes straight into the node slice, carves every name out of one
// backing string, and lays the edges out as one flat successor and one
// flat predecessor array in document order (the fingerprint hashes
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
	d := wireDecoder{s: jsonscan.Scanner{Data: data}}
	g, err := d.graph()
	if err != nil {
		return nil, 0, err
	}
	return g, d.s.Pos, nil
}

// wireDecoder is the state of one ParseJSON call.
type wireDecoder struct {
	s     jsonscan.Scanner
	name  string
	nodes []Node
	// names holds every node name back to back. A node keeps the end
	// offset of its name in ID until the names are carved out of one
	// string, which is when the IDs are assigned.
	names []byte
	edges []int // u0, v0, u1, v1, ... in document order
}

func (d *wireDecoder) graph() (*Graph, error) {
	if err := d.document(); err != nil {
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
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

	// Flat adjacency: count degrees, cut one backing array per direction
	// into per-node windows, then fill the windows in document order.
	m := len(d.edges) / 2
	outDeg, inDeg := make([]int, n), make([]int, n)
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
	g.succ, g.pred = windows(make([]int, m), outDeg), windows(make([]int, m), inDeg)
	for i := 0; i < 2*m; i += 2 {
		u, v := d.edges[i], d.edges[i+1]
		g.succ[u] = append(g.succ[u], v)
		g.pred[v] = append(g.pred[v], u)
	}
	if err := g.Build(); err != nil {
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

// document scans the top-level object into d. Here and in node, a null
// value leaves its member as it was, and of a repeated scalar member the
// last one counts, both as in encoding/json.
func (d *wireDecoder) document() error {
	s := &d.s
	if s.Null() {
		return nil
	}
	if err := s.Open('{'); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := s.Member(first)
		if !ok {
			return err
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
				return errors.New(`duplicate "nodes" member`)
			}
			err = d.nodeList()
		case "edges":
			if d.edges != nil {
				return errors.New(`duplicate "edges" member`)
			}
			err = d.edgeList()
		default:
			if err = foldsTo(key, "name", "nodes", "edges"); err == nil {
				err = s.Skip()
			}
		}
		if err != nil {
			return err
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

func (d *wireDecoder) nodeList() error {
	s := &d.s
	if err := s.Open('['); err != nil {
		return err
	}
	guess := min((len(s.Data)-s.Pos)/docBytesPerNode+1, maxNodesGuess)
	d.nodes = make([]Node, 0, guess)
	d.names = make([]byte, 0, guess*docBytesPerNode/docBytesPerName)
	for first := true; ; first = false {
		ok, err := s.Element(first)
		if !ok {
			return err
		}
		if err := d.node(); err != nil {
			return fmt.Errorf("nodes[%d]: %w", len(d.nodes), err)
		}
	}
}

// node scans one node object (or null, the zero node) onto d.nodes.
func (d *wireDecoder) node() error {
	s := &d.s
	n := Node{Kind: OpOther} // what a missing or unknown "kind" decodes to
	start := len(d.names)
	if !s.Null() {
		if err := s.Open('{'); err != nil {
			return err
		}
		for first := true; ; first = false {
			key, ok, err := s.Member(first)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if s.Null() {
				continue
			}
			switch string(key) {
			case "name":
				var name []byte
				if name, err = s.String(); err == nil {
					d.names = append(d.names[:start], name...)
				}
			case "kind":
				var kind []byte
				if kind, err = s.String(); err == nil {
					if k, known := opKindByName[string(kind)]; known {
						n.Kind = k
					} else {
						n.Kind = OpOther
					}
				}
			case "param_bytes":
				n.ParamBytes, err = s.Int()
			case "out_bytes":
				n.OutBytes, err = s.Int()
			case "macs":
				n.MACs, err = s.Int()
			default:
				if err = foldsTo(key, "name", "kind", "param_bytes", "out_bytes", "macs"); err == nil {
					err = s.Skip()
				}
			}
			if err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
		}
	}
	n.ID = len(d.names)
	d.nodes = append(d.nodes, n)
	return nil
}

func (d *wireDecoder) edgeList() error {
	s := &d.s
	if err := s.Open('['); err != nil {
		return err
	}
	// DNN graphs are thin: |E| is a little over |V|. When the edges come
	// before the nodes, the slice grows from nothing.
	d.edges = make([]int, 0, 3*len(d.nodes))
	for first := true; ; first = false {
		ok, err := s.Element(first)
		if !ok {
			return err
		}
		if err := d.edge(); err != nil {
			return fmt.Errorf("edges[%d]: %w", len(d.edges)/2, err)
		}
	}
}

// edge scans one [u, v] pair: exactly two integers.
func (d *wireDecoder) edge() error {
	s := &d.s
	if err := s.Open('['); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		ok, err := s.Element(i == 0)
		if err != nil {
			return err
		}
		if ok != (i < 2) {
			return errors.New("an edge is exactly two node IDs")
		}
		if !ok {
			break
		}
		v, err := s.Int()
		if err != nil {
			return err
		}
		d.edges = append(d.edges, int(v))
	}
	return nil
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
