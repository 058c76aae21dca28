package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"

	"respect"
)

// The paper evaluates pipelines of 4, 5 and 6 Edge TPUs; every workload
// cycles its requests through these.
var stageCounts = []int{4, 5, 6}

// instance is one graph as the benchmark knows it: the wire document it
// sends, the edge list the checker reads back out of that document, and
// the built graph the simulator needs.
type instance struct {
	name  string
	doc   []byte // graph.WriteJSON output, sent verbatim as "graph"
	nodes int
	edges [][2]int
	graph *respect.Graph
}

// key is one distinct (graph, stages) scheduling problem. The quality
// metrics weight every key once however often it was requested.
type key struct {
	inst   *instance
	stages int
}

type requestKind uint8

const (
	byName requestKind = iota // {"model": "<zoo name>"}
	inline                    // {"graph": {...}}
)

// request is one prepared POST /v1/schedule body.
type request struct {
	body   []byte
	key    int // index into pool.keys
	kind   requestKind
	target int // replica index the request is sent to
}

// pool is a workload's whole input: the distinct keys and the fixed
// request cycle the clients walk. Every run with the same seed draws the
// same population in the same order.
type pool struct {
	keys  []key
	cycle []request
	// cursor is the next cycle position; phases continue where the last
	// one stopped, so a warm-up never re-primes the measured window.
	cursor atomic.Int64
}

func newInstance(g *respect.Graph) (*instance, error) {
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("encode graph %q: %w", g.Name, err)
	}
	// Read the edges back from the document rather than from g, so the
	// checker depends on the wire format alone.
	var doc struct {
		Nodes []json.RawMessage `json:"nodes"`
		Edges [][2]int          `json:"edges"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("re-read graph %q: %w", g.Name, err)
	}
	return &instance{name: g.Name, doc: buf.Bytes(), nodes: len(doc.Nodes), edges: doc.Edges, graph: g}, nil
}

func zooInstances(names []string) ([]*instance, error) {
	out := make([]*instance, len(names))
	for i, name := range names {
		g, err := respect.LoadModel(name)
		if err != nil {
			return nil, err
		}
		inst, err := newInstance(g)
		if err != nil {
			return nil, err
		}
		inst.name = name // the by-name requests use the zoo key
		out[i] = inst
	}
	return out, nil
}

func synthInstances(n, nodes, degree int, seed int64) ([]*instance, error) {
	graphs, err := respect.SampleSyntheticGraphs(n, nodes, degree, seed)
	if err != nil {
		return nil, err
	}
	out := make([]*instance, len(graphs))
	for i, g := range graphs {
		if out[i], err = newInstance(g); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// requestOpts are the fields of a schedule request besides the graph.
type requestOpts struct {
	class    string
	backends []string
	trace    bool
}

// scheduleBody assembles a POST /v1/schedule body by hand so an inline
// graph goes out exactly as graph.WriteJSON wrote it (json.Marshal would
// compact it and shrink the document the server has to decode).
func scheduleBody(inst *instance, kind requestKind, stages int, o requestOpts) []byte {
	var b bytes.Buffer
	b.WriteString(`{"stages":`)
	b.WriteString(strconv.Itoa(stages))
	b.WriteString(`,"class":`)
	b.WriteString(strconv.Quote(o.class))
	if len(o.backends) > 0 {
		names, _ := json.Marshal(o.backends) // a []string cannot fail
		b.WriteString(`,"backends":`)
		b.Write(names)
	}
	if o.trace {
		b.WriteString(`,"trace":true`)
	}
	if kind == byName {
		b.WriteString(`,"model":`)
		b.WriteString(strconv.Quote(inst.name))
	} else {
		b.WriteString(`,"graph":`)
		b.Write(inst.doc)
	}
	b.WriteString("}")
	return b.Bytes()
}

// add appends a request for (inst, stages), registering the key on first
// use.
func (p *pool) add(index map[key]int, inst *instance, kind requestKind, stages int, o requestOpts) {
	k := key{inst, stages}
	id, ok := index[k]
	if !ok {
		id = len(p.keys)
		index[k] = id
		p.keys = append(p.keys, k)
	}
	p.cycle = append(p.cycle, request{body: scheduleBody(inst, kind, stages, o), key: id, kind: kind})
}

// zooPool is the zoo_hit and fleet_forward input: every zoo model at 4, 5
// and 6 stages. With inlineEvery = 4 each key is requested four times per
// cycle, three by name and once with its graph inline; with 0 every
// request is by name. The zoo does not depend on the seed, so the seed
// orders the cycle instead.
func zooPool(seed int64, inlineEvery int, o requestOpts) (*pool, error) {
	insts, err := zooInstances(respect.ModelNames())
	if err != nil {
		return nil, err
	}
	p, index := &pool{}, map[key]int{}
	passes := 1
	if inlineEvery > 0 {
		passes = inlineEvery
	}
	for pass := 0; pass < passes; pass++ {
		j := 0
		for _, stages := range stageCounts {
			for _, inst := range insts {
				kind := byName
				if inlineEvery > 0 && (j+pass)%inlineEvery == inlineEvery-1 {
					kind = inline
				}
				p.add(index, inst, kind, stages, o)
				j++
			}
		}
	}
	p.shuffle(seed)
	return p, nil
}

// synth_miss draws its graphs from a fixed population and lets the seed
// order them. Exact branch-and-bound time on these graphs is so
// heavy-tailed (the slowest 1 % of a pool holds about half of its total
// solve time) that two independently sampled pools of any practical size
// differ by +-20 % in mean solve time; a per-seed population would make
// the seed, not the code, the largest term in every timing metric.
const (
	synthMissGraphs   = 4096 // eight times the server's 512-entry cache
	synthMissNodes    = 30   // the paper's training |V|
	synthMissDegree   = 6    // in-degrees 1..6
	synthMissBaseSeed = 20230709
)

// synthPool is the synth_miss input: unique 30-node DAGs from the paper's
// training distribution, each sent inline once per cycle. The cycle is
// longer than the cache, so an entry is evicted before its key comes
// round again and every request misses.
func synthPool(seed int64, o requestOpts) (*pool, error) {
	insts, err := synthInstances(synthMissGraphs, synthMissNodes, synthMissDegree, synthMissBaseSeed)
	if err != nil {
		return nil, err
	}
	p, index := &pool{}, map[key]int{}
	for i, inst := range insts {
		p.add(index, inst, inline, stageCounts[i%len(stageCounts)], o)
	}
	p.shuffle(seed)
	return p, nil
}

// shuffle orders the cycle by the seed.
func (p *pool) shuffle(seed int64) {
	rand.New(rand.NewSource(seed)).Shuffle(len(p.cycle), func(a, b int) {
		p.cycle[a], p.cycle[b] = p.cycle[b], p.cycle[a]
	})
}
