// Fuzz targets for the graph JSON wire format and the structural
// fingerprint. External test package so the seed corpus can draw on the
// model zoo (models imports graph).
package graph_test

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"respect/internal/graph"
	"respect/internal/models"
)

// zooSeeds serializes a few representative zoo graphs (chain-style,
// dense-block and wide-inception topologies) as decoder seed inputs.
func zooSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	for _, name := range []string{"ResNet50", "DenseNet121", "Inception_v3", "MobileNet"} {
		g, err := models.Load(name)
		if err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	return seeds
}

// structurallyEqual deep-compares two built graphs through the public API:
// node attributes (not names — the fingerprint is name-blind by design)
// and adjacency.
func structurallyEqual(a, b *graph.Graph) bool {
	if a.NumNodes() != b.NumNodes() {
		return false
	}
	for v := 0; v < a.NumNodes(); v++ {
		na, nb := a.Node(v), b.Node(v)
		if na.Kind != nb.Kind || na.ParamBytes != nb.ParamBytes || na.OutBytes != nb.OutBytes || na.MACs != nb.MACs {
			return false
		}
		sa, sb := a.Succ(v), b.Succ(v)
		if len(sa) != len(sb) {
			return false
		}
		for i := range sa {
			if sa[i] != sb[i] {
				return false
			}
		}
	}
	return true
}

// checkRoundTrip holds an accepted graph to the encoder: its WriteJSON
// output decodes, and encodes again to the same bytes. That is the whole
// contract. WriteJSON sorts the edge list, so a graph decoded from an
// unsorted document comes back with successors in another order, and
// the fingerprint, which hashes them in order, is that of the sorted
// document from then on.
func checkRoundTrip(t *testing.T, g *graph.Graph) {
	t.Helper()
	var first, second bytes.Buffer
	if err := g.WriteJSON(&first); err != nil {
		t.Fatalf("accepted graph failed to encode: %v", err)
	}
	back, err := graph.ReadJSON(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("round trip rejected: %v\nencoded: %s", err, first.Bytes())
	}
	if err := back.WriteJSON(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("round trip changed the graph:\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
	}
}

// FuzzReadJSON feeds arbitrary bytes to the graph decoder: it must never
// panic, and every graph it accepts must survive an encode/decode round
// trip (see checkRoundTrip).
func FuzzReadJSON(f *testing.F) {
	for _, seed := range zooSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte(`{"name":"g","nodes":[{"name":"a","kind":"conv","param_bytes":3}],"edges":[]}`))
	f.Add([]byte(`{"name":"g","nodes":[{"name":"a"},{"name":"b"}],"edges":[[0,1],[1,0]]}`))
	f.Add([]byte(`{"edges":[[0,7]]}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := graph.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs just must not crash
		}
		checkRoundTrip(t, g)
	})
}

// sameGraph compares two built graphs in full through the public API:
// name, every node attribute including names, successor and predecessor
// order, and fingerprint.
func sameGraph(a, b *graph.Graph) error {
	if a.Name != b.Name || a.NumNodes() != b.NumNodes() {
		return fmt.Errorf("name/size %q/%d vs %q/%d", a.Name, a.NumNodes(), b.Name, b.NumNodes())
	}
	for v := 0; v < a.NumNodes(); v++ {
		if a.Node(v) != b.Node(v) {
			return fmt.Errorf("node %d: %+v vs %+v", v, a.Node(v), b.Node(v))
		}
		if !slices.Equal(a.Succ(v), b.Succ(v)) || !slices.Equal(a.Pred(v), b.Pred(v)) {
			return fmt.Errorf("node %d adjacency: succ %v/%v pred %v/%v", v, a.Succ(v), b.Succ(v), a.Pred(v), b.Pred(v))
		}
	}
	if a.Fingerprint() != b.Fingerprint() {
		return fmt.Errorf("fingerprint %x vs %x", a.Fingerprint(), b.Fingerprint())
	}
	return nil
}

// checkAgainstOracle holds ParseJSON to the encoding/json decoder it
// replaced on one input: whatever ParseJSON accepts, the oracle accepts
// given the same bytes, as the same graph; and the accepted graph
// round-trips through WriteJSON. The input decoded as an unbuilt
// Document must agree with both (see checkDocument).
func checkAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	doc, docN, docErr := graph.DecodeJSON(data)
	g, n, err := graph.ParseJSON(data)
	if (docErr == nil) != (err == nil) || docErr != nil && docErr.Error() != err.Error() {
		t.Fatalf("DecodeJSON and ParseJSON disagree: %v vs %v\ninput: %q", docErr, err, data)
	}
	if err != nil {
		// ParseJSON may be stricter (TestParseJSONTightenings); it must not
		// panic, and the refusal must leave the pooled scratch clean.
		checkAfterRefusal(t)
		return
	}
	defer doc.Release()
	if n < 0 || n > len(data) || docN != n {
		t.Fatalf("consumed %d (document %d) of %d bytes", n, docN, len(data))
	}
	want, err := graph.OracleReadJSON(bytes.NewReader(data[:n]))
	if err != nil {
		t.Fatalf("ParseJSON accepted what the oracle rejects (%v): %q", err, data[:n])
	}
	if err := sameGraph(g, want); err != nil {
		t.Fatalf("ParseJSON and the oracle disagree: %v\ninput: %q", err, data[:n])
	}
	checkDocument(t, doc, want)
	checkRoundTrip(t, g)
}

// checkDocument holds an unbuilt document to the graph want it decodes
// to: the same name, node count and fingerprint before it is built, and
// the same graph once it is.
func checkDocument(t *testing.T, doc *graph.Document, want *graph.Graph) {
	t.Helper()
	if doc.Name() != want.Name || doc.NumNodes() != want.NumNodes() || doc.Fingerprint() != want.Fingerprint() {
		t.Fatalf("document %q/%d/%#x, graph %q/%d/%#x", doc.Name(), doc.NumNodes(), doc.Fingerprint(),
			want.Name, want.NumNodes(), want.Fingerprint())
	}
	if err := sameGraph(doc.Graph(), want); err != nil {
		t.Fatalf("document built another graph: %v", err)
	}
	if doc.Graph() != doc.Graph() {
		t.Fatal("a document built its graph twice")
	}
}

// afterRefusal is decoded right after a refused input, through the same
// pool: every member the decoder keeps state for, once.
const afterRefusal = `{"name":"after","nodes":[{"name":"a","macs":1},{"name":"b"},{"name":"c"}],"edges":[[0,2],[1,2]]}`

// checkAfterRefusal decodes afterRefusal and compares it with the
// oracle's graph: a failed decode must leave no nodes, edges, names or
// duplicate-member state behind in the scratch it hands back.
func checkAfterRefusal(t *testing.T) {
	t.Helper()
	want, err := graph.OracleReadJSON(strings.NewReader(afterRefusal))
	if err != nil {
		t.Fatal(err)
	}
	doc, _, err := graph.DecodeJSON([]byte(afterRefusal))
	if err != nil {
		t.Fatalf("a refused input left state behind: %v", err)
	}
	defer doc.Release()
	checkDocument(t, doc, want)
}

// differentialSeeds are documents on the edges of the wire format: each
// is decoded the same by both decoders or refused by ParseJSON.
var differentialSeeds = []string{
	`{"name":"g","nodes":[{"name":"a","kind":"conv","param_bytes":3}],"edges":[]}`,
	`{"edges":[[0,1],[0,2],[1,2]],"nodes":[{"name":"a"},{"name":"b"},{"name":"c"}],"name":"edges first"}`,
	`{"name":"esc\u0061pe \ud83d\ude00 \"q\"","nodes":[{"name":"caf\u00e9","kind":"dwconv"},{"n\u0061me":"x","kind":"nonsense"}]}`,
	"{\"name\":\"bad utf8 \xff\",\"nodes\":[{\"name\":\"\xc3\"}]}",
	`{"name":null,"nodes":[null,{"name":null,"kind":null,"param_bytes":null,"macs":-0}],"edges":null}`,
	`{"nodes":[{"name":"a","name":"b","macs":1,"macs":2,"extra":{"deep":[1,2,{"x":null}]}}],"unknown":[[]]}`,
	`{"nodes":[{"param_bytes":9223372036854775807,"out_bytes":-9223372036854775808},{}],"edges":[[1,0]]}`,
	`{"nodes":[{"param_bytes":9223372036854775808}]}`,
	`{"nodes":[{"param_bytes":1.0}]}`,
	`{"nodes":[{"param_bytes":"1"}]}`,
	`{"nodes":[{},{}],"edges":[[0,1],[0,1]]}`,
	`{"nodes":[{},{},{}],"edges":[[1,2],[0,2],[0,1]]}`,
	`{"nodes":[{},{}],"edges":[[0,1,2]]}`,
	`{"nodes":[{},{}],"edges":[[0]]}`,
	`{"nodes":[{},{}],"edges":[[0,null]]}`,
	`{"Nodes":[{}],"NAME":"folded"}`,
	`{"nodes":[{}],"nodes":[{},{}]}`,
	` null `, `{}`, `[]`, `{"nodes":{}}`, `{"nodes":[[]]}`, `{"nodes":[{}]} trailing`, `{"nodes":[{}],}`,
	// Whitespace and separators where the decoder's own loops meet them:
	// a tab, a CR and a CRLF between every two tokens; whitespace before
	// ':', ',' and ']'; empty containers with whitespace inside.
	strings.ReplaceAll(spacedDoc, "~", "\t"),
	strings.ReplaceAll(spacedDoc, "~", "\r"),
	strings.ReplaceAll(spacedDoc, "~", "\r\n"),
	`{"name" :"g" ,"nodes" :[{"name" :"a" ,"macs" :1 } ,{} ,null ] ,"edges" :[[0 ,1 ] ] }`,
	`{ }`, `{"nodes":[ ],"edges":[ ]}`, `{"nodes":[{ },{ }],"edges":[ [ 0 , 1 ] ]}`,
}

// spacedDoc has a ~ between every two tokens, for differentialSeeds to
// replace with whitespace.
const spacedDoc = `~{~"name"~:~"g"~,~"nodes"~:~[~{~"name"~:~"a"~,~"kind"~:~"conv"~,~"macs"~:~3~}~,~null~,~{~}~]~,` +
	`~"edges"~:~[~[~0~,~1~]~,~[~1~,~2~]~]~,~"x"~:~{~"y"~:~[~1~,~"z"~]~}~}~`

// FuzzParseJSONDifferential fuzzes the hand-written decoder against the
// one it replaced (see checkAgainstOracle).
func FuzzParseJSONDifferential(f *testing.F) {
	for _, seed := range zooSeeds(f) {
		f.Add(seed)
	}
	for _, seed := range differentialSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(checkAgainstOracle)
}

// fuzzBuild deterministically derives a small DAG from raw bytes: node
// count, per-node attributes and parent choices are all read from data.
// mutNode/mutDelta optionally perturb one node's parameter bytes, and
// mutEdge rewires one node's parent — the controlled mutations the
// fingerprint property is checked against.
func fuzzBuild(data []byte, mutNode uint8, mutDelta int64, mutEdge bool) *graph.Graph {
	at := func(i int) int64 {
		if len(data) == 0 {
			return 0
		}
		return int64(data[i%len(data)])
	}
	n := int(2 + at(0)%14)
	g := graph.New("fuzz")
	for v := 0; v < n; v++ {
		node := graph.Node{
			Kind:       graph.OpKind(at(1+3*v) % 15),
			ParamBytes: at(2 + 3*v),
			OutBytes:   at(3 + 3*v),
			MACs:       at(4 + 3*v),
		}
		if int(mutNode)%n == v {
			// Top two bits masked off: Build refuses a negative weight
			// and weights that sum past int64.
			node.ParamBytes = (node.ParamBytes + mutDelta) & (math.MaxInt64 >> 1)
		}
		g.AddNode(node)
	}
	for v := 1; v < n; v++ {
		parent := int(at(5+2*v)) % v
		if mutEdge && v == n-1 && v > 1 {
			parent = (parent + 1) % v
		}
		g.AddEdge(parent, v)
	}
	return g.MustBuild()
}

// FuzzFingerprint checks the fingerprint contract on mutated inputs:
// deterministic and name-blind, equal for structurally equal graphs, and
// different whenever a node attribute or an edge differs (fingerprint
// equality ⇔ structural equality over the mutation space).
func FuzzFingerprint(f *testing.F) {
	f.Add([]byte{7, 1, 2, 3}, uint8(0), int64(1), true)
	f.Add([]byte{255, 254, 253}, uint8(3), int64(-5), false)
	f.Add([]byte{}, uint8(0), int64(0), false)
	f.Add([]byte{42, 42, 42, 42, 42, 42, 42, 42}, uint8(200), int64(1<<40), true)
	f.Fuzz(func(t *testing.T, data []byte, mutNode uint8, mutDelta int64, mutEdge bool) {
		base := fuzzBuild(data, 0, 0, false)
		same := fuzzBuild(data, 0, 0, false)
		if !structurallyEqual(base, same) {
			t.Fatal("deterministic build produced different graphs")
		}
		if base.Fingerprint() != same.Fingerprint() {
			t.Fatal("equal structures, different fingerprints")
		}
		same.Name = "renamed"
		if base.Fingerprint() != same.Fingerprint() {
			t.Fatal("fingerprint must ignore the graph name")
		}

		for _, mutated := range []*graph.Graph{
			fuzzBuild(data, mutNode, mutDelta, false),
			fuzzBuild(data, 0, 0, mutEdge),
			fuzzBuild(data, mutNode, mutDelta, mutEdge),
		} {
			fpEqual := base.Fingerprint() == mutated.Fingerprint()
			structEqual := structurallyEqual(base, mutated)
			if fpEqual != structEqual {
				t.Fatalf("fingerprint equality (%v) diverged from structural equality (%v)", fpEqual, structEqual)
			}
		}
	})
}

// TestFingerprintZooCorpus pins the fingerprint ⇔ structure property on
// the real model zoo: every pair of distinct zoo models must disagree, and
// a serialization round trip must agree.
func TestFingerprintZooCorpus(t *testing.T) {
	names := models.Names()
	fps := make(map[uint64]string, len(names))
	for _, name := range names {
		g, err := models.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		fp := g.Fingerprint()
		if prev, ok := fps[fp]; ok {
			t.Fatalf("zoo fingerprint collision: %s and %s", prev, name)
		}
		fps[fp] = name

		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		g2, err := graph.ReadJSON(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if g2.Fingerprint() != fp {
			t.Fatalf("%s: fingerprint not serialization-stable", name)
		}
	}
}

// TestFingerprintGolden pins the fingerprint's value, so that a change of
// the hash shows as a deliberate diff here. Replicas agree on the owner of
// a key only if they compute the same fingerprint for its graph: the
// fleet ring places keys by it, and a replica that hashed differently
// would forward to owners the others do not pick.
func TestFingerprintGolden(t *testing.T) {
	three := graph.New("three")
	three.AddNode(graph.Node{Kind: graph.OpInput, OutBytes: 150528})
	three.AddNode(graph.Node{Kind: graph.OpConv, ParamBytes: 864, OutBytes: 401408, MACs: 10838016})
	three.AddNode(graph.Node{Kind: graph.OpRelu, OutBytes: 401408})
	three.AddEdge(0, 1)
	three.AddEdge(1, 2)
	for _, tc := range []struct {
		name      string
		got, want uint64
	}{
		{"three-node chain", three.MustBuild().Fingerprint(), 0x5e6326c8893ae5f9},
		{"VGG16", models.MustLoad("VGG16").Fingerprint(), 0xb271bdfa85b65753},
		{"ResNet50", models.MustLoad("ResNet50").Fingerprint(), 0x187a28b2bc02bd70},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: fingerprint %#016x, want %#016x", tc.name, tc.got, tc.want)
		}
	}
}
