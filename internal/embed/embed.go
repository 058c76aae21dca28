// Package embed converts computational graphs into the fixed-width vector
// sequences consumed by the LSTM-PtrNet (paper §III-A): per node, its ASAP
// topological level (absolute coordinate), its ID, the levels and IDs of
// its parents (relative coordinates, dependency constraints), and its
// memory consumption.
package embed

import (
	"sort"

	"respect/internal/graph"
)

// Config selects embedding columns; the defaults reproduce the paper.
type Config struct {
	// Parents is how many parent (level, ID) pairs are encoded; the paper
	// diagrams one pair per parent — two covers deg(V)=2 real models, and
	// higher-degree parents are summarized by the maximum-level pair
	// first. Must be >= 0.
	Parents int
	// IncludeMemory adds the node memory column (paper default true).
	IncludeMemory bool
}

// Default is the paper-faithful configuration.
func Default() Config {
	return Config{Parents: 2, IncludeMemory: true}
}

// Dim returns the embedding width under the configuration.
func (c Config) Dim() int {
	d := 2 + 2*c.Parents // level, id, parent pairs
	if c.IncludeMemory {
		d++
	}
	return d
}

// Graph embeds every node of g, returning |V| rows in node-ID order.
// All columns are normalized to small ranges so LSTM inputs stay
// well-conditioned: levels by graph depth, IDs (node index + 1) by |V|
// (missing parents get −1, the paper's sentinel), memory by the largest
// node footprint.
func Graph(g *graph.Graph, cfg Config) [][]float64 {
	n := g.NumNodes()
	depth := float64(g.Depth() + 1)
	var maxMem int64 = 1
	for v := 0; v < n; v++ {
		if p := g.Node(v).ParamBytes; p > maxMem {
			maxMem = p
		}
	}
	id := func(v int) float64 { return float64(v+1) / float64(n) }

	out := make([][]float64, n)
	for v := 0; v < n; v++ {
		row := make([]float64, 0, cfg.Dim())
		row = append(row, float64(g.ASAP(v))/depth, id(v))

		// Parents sorted by level descending (the binding constraint
		// first), then by ID for determinism.
		preds := append([]int(nil), g.Pred(v)...)
		sort.Slice(preds, func(a, b int) bool {
			la, lb := g.ASAP(preds[a]), g.ASAP(preds[b])
			if la != lb {
				return la > lb
			}
			return preds[a] < preds[b]
		})
		for k := 0; k < cfg.Parents; k++ {
			if k < len(preds) {
				p := preds[k]
				row = append(row, float64(g.ASAP(p))/depth, id(p))
			} else {
				row = append(row, 0, -1)
			}
		}
		if cfg.IncludeMemory {
			row = append(row, float64(g.Node(v).ParamBytes)/float64(maxMem))
		}
		out[v] = row
	}
	return out
}
