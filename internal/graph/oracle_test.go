package graph

import (
	"encoding/json"
	"fmt"
	"io"
)

// OracleReadJSON is the decoder ParseJSON replaced, kept verbatim as the
// reference the differential tests hold it to: encoding/json into the
// WriteJSON structs, then AddNode/AddEdge/Build.
func OracleReadJSON(r io.Reader) (*Graph, error) {
	var jg jsonGraph
	if err := json.NewDecoder(r).Decode(&jg); err != nil {
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
	g := New(jg.Name)
	for _, n := range jg.Nodes {
		g.AddNode(Node{
			Name: n.Name, Kind: kindFromString(n.Kind),
			ParamBytes: n.ParamBytes, OutBytes: n.OutBytes, MACs: n.MACs,
		})
	}
	for _, e := range jg.Edges {
		if e[0] < 0 || e[0] >= len(g.nodes) || e[1] < 0 || e[1] >= len(g.nodes) {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range", e[0], e[1])
		}
		if e[0] == e[1] {
			return nil, fmt.Errorf("graph: self edge at node %d", e[0])
		}
		g.AddEdge(e[0], e[1])
	}
	if err := g.Build(); err != nil {
		return nil, err
	}
	return g, nil
}

func kindFromString(s string) OpKind {
	for k, name := range opKindNames {
		if name == s {
			return OpKind(k)
		}
	}
	return OpOther
}
