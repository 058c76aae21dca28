// Contract tests of the hand-written wire decoder beyond the
// differential fuzz target in fuzz_test.go: the closed list of places
// where ParseJSON is stricter than the encoding/json decoder it replaced,
// the lenient behaviour kept on purpose, its allocation budget, and its
// independence from the input buffer.
package graph_test

import (
	"bytes"
	"strings"
	"testing"

	"respect/internal/graph"
	"respect/internal/models"
)

// TestParseJSONTightenings pins every document the old decoder accepted
// and ParseJSON refuses. The list is closed: a new entry is a wire-format
// change.
func TestParseJSONTightenings(t *testing.T) {
	// Build is the last step of both decoders, so what it refuses the
	// oracle refuses too.
	const byBuild = "built as written; Build now refuses it, so the oracle's result is itself refused"
	cases := []struct{ name, doc, was string }{
		{"member name in another case", `{"Nodes":[{}]}`, "encoding/json folds case"},
		{"node member name in another case", `{"nodes":[{"Param_Bytes":4}]}`, "encoding/json folds case"},
		{"edge with a third element", `{"nodes":[{},{}],"edges":[[0,1,7]]}`, "extra elements were ignored"},
		{"edge with one element", `{"nodes":[{},{}],"edges":[[1]]}`, "missing elements read as 0"},
		{"edge with no element", `{"nodes":[{},{}],"edges":[[]]}`, "read as the self edge (0,0), itself refused"},
		{"null edge", `{"nodes":[{},{}],"edges":[null,[0,1]]}`, "read as (0,0), itself refused"},
		{"null edge endpoint", `{"nodes":[{},{}],"edges":[[null,1]]}`, "read as 0"},
		{"second nodes member", `{"nodes":[{}],"nodes":[{},{}]}`, "the last one won"},
		{"second edges member", `{"nodes":[{},{}],"edges":[],"edges":[[0,1]]}`, "the last one won"},
		{"negative param_bytes", `{"nodes":[{"name":"a","param_bytes":-5},{"name":"b"}],"edges":[[0,1]]}`, byBuild},
		{"negative out_bytes", `{"nodes":[{"out_bytes":-1}]}`, byBuild},
		{"negative macs", `{"nodes":[{},{"macs":-9223372036854775808}]}`, byBuild},
		{"weights that sum past int64", `{"nodes":[{"param_bytes":9223372036854775807},{"param_bytes":1}]}`, byBuild},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := graph.ParseJSON([]byte(tc.doc)); err == nil {
				t.Fatalf("ParseJSON accepted %s (old decoder: %s)", tc.doc, tc.was)
			}
			// All but those that decoded to a self edge or to attributes out
			// of range, which Build refuses for both decoders, were accepted.
			_, err := graph.OracleReadJSON(strings.NewReader(tc.doc))
			if wasRefused := strings.Contains(tc.was, "itself refused"); (err != nil) != wasRefused {
				t.Fatalf("oracle on %s: err = %v, want refused = %v", tc.doc, err, wasRefused)
			}
		})
	}
}

// TestParseJSONKeptBehaviour pins the leniency of the old decoder that
// ParseJSON keeps on purpose; each document decodes as the oracle does.
func TestParseJSONKeptBehaviour(t *testing.T) {
	cases := []struct {
		name, doc string
		nodes     int
	}{
		{"unknown members are ignored", `{"version":2,"nodes":[{"name":"a","dtype":"int8","shape":[1,2]}],"meta":{"k":[null]}}`, 1},
		{"null document is the empty graph", `null`, 0},
		{"empty object is the empty graph", `{}`, 0},
		{"null members are absent members", `{"name":null,"nodes":null,"edges":null}`, 0},
		{"null after a value leaves the value", `{"name":"kept","name":null,"nodes":[{"macs":3,"macs":null}]}`, 1},
		{"null node is the zero node", `{"nodes":[null,{"name":"b"}],"edges":[[0,1]]}`, 2},
		{"last repeated scalar wins", `{"name":"a","name":"b","nodes":[{"kind":"conv","kind":"relu","macs":1,"macs":2}]}`, 1},
		{"unknown kind is other", `{"nodes":[{"kind":"transformer"},{"kind":""},{}]}`, 3},
		{"escaped member names match", `{"n\u006fdes":[{"n\u0061me":"x"}]}`, 1},
		{"edges before nodes", `{"edges":[[1,0]],"nodes":[{},{}]}`, 2},
		{"bytes after the document are left alone", `{"nodes":[{}]} , "stages": 4}`, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, n, err := graph.ParseJSON([]byte(tc.doc))
			if err != nil {
				t.Fatalf("ParseJSON refused %s: %v", tc.doc, err)
			}
			if g.NumNodes() != tc.nodes {
				t.Fatalf("%d nodes, want %d", g.NumNodes(), tc.nodes)
			}
			checkAgainstOracle(t, []byte(tc.doc))
			if rest := tc.doc[n:]; strings.HasPrefix(tc.name, "bytes after") != (rest != "") {
				t.Fatalf("stopped with %q left", rest)
			}
		})
	}
}

// TestParseJSONErrors: every defect a client can send is an error (the
// table runs without a panic), and none reaches Build as a bad graph.
func TestParseJSONErrors(t *testing.T) {
	for _, doc := range []string{
		``, `{`, `{"nodes":[{]}`, `{"nodes":[{}],}`, `[]`, `7`, `"graph"`, `nul`,
		`{"name":7}`, `{"nodes":{}}`, `{"nodes":[[]]}`, `{"nodes":[{"name":7}]}`, `{"nodes":[{"kind":7}]}`,
		`{"nodes":[{"macs":1.5}]}`, `{"nodes":[{"macs":1e3}]}`, `{"nodes":[{"macs":"1"}]}`, `{"nodes":[{"macs":01}]}`,
		`{"nodes":[{"out_bytes":9223372036854775808}]}`, `{"nodes":[{"param_bytes":-9223372036854775809}]}`,
		`{"nodes":[{}],"edges":[[0,7]]}`, `{"nodes":[{},{}],"edges":[[-1,1]]}`, `{"nodes":[{},{}],"edges":[[0,99999999999999999999]]}`,
		`{"nodes":[{},{}],"edges":[[0,0]]}`, `{"nodes":[{},{}],"edges":[[0,1],[0,1]]}`, `{"nodes":[{},{}],"edges":[[0,1],[1,0]]}`,
		`{"nodes":[{},{}],"edges":[[0.0,1]]}`, `{"nodes":[{},{}],"edges":[0,1]}`, `{"nodes":[{}],"edges":{}}`,
		"{\"nodes\":[{\"name\":\"a\x01\"}]}", `{"nodes":[{"name":"\q"}]}`, `{"nodes":[{"x":[1,}]}`,
		`{"nodes":[{"name":"a",}]}`, `{"nodes":[{},{}],"edges":[[0,1,]]}`, `{"nodes":[nullx]}`, `{"nodes":[{"name":nullx}]}`,
	} {
		if g, _, err := graph.ParseJSON([]byte(doc)); err == nil {
			t.Errorf("ParseJSON accepted %q as a %d-node graph", doc, g.NumNodes())
		}
	}
}

func resNet50Doc(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := models.MustLoad("ResNet50").WriteJSON(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestParseJSONAllocs is the decoder's allocation gate: the ResNet50
// document (177 nodes, 27 KB) took 808 allocations through encoding/json.
// Decoding alone works in pooled scratch and allocates only the graph's
// name; a build adds the graph, its nodes, their names, its adjacency
// and its levels.
func TestParseJSONAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch")
	}
	doc := resNet50Doc(t)
	for _, tc := range []struct {
		name   string
		decode func() error
		budget float64
	}{
		{"DecodeJSON", func() error {
			d, _, err := graph.DecodeJSON(doc)
			if err == nil {
				d.Release()
			}
			return err
		}, 1},
		{"ParseJSON", func() error {
			_, _, err := graph.ParseJSON(doc)
			return err
		}, 7},
	} {
		var err error
		allocs := testing.AllocsPerRun(20, func() {
			if e := tc.decode(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs > tc.budget {
			t.Errorf("%s(ResNet50) = %.0f allocs/op, budget %.0f", tc.name, allocs, tc.budget)
		}
	}
}

// TestParseJSONKeepsNoReference: a decoded graph must survive its input
// buffer being reused, because the serving layer decodes out of a pooled
// body buffer and a periodic stream keeps its graph for hours; and it
// must survive the next decode reusing the pooled scratch it was built
// from.
func TestParseJSONKeepsNoReference(t *testing.T) {
	doc := resNet50Doc(t)
	want, _, err := graph.ParseJSON(bytes.Clone(doc))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := graph.ParseJSON(doc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range doc {
		doc[i] = 'x'
	}
	if err := sameGraph(got, want); err != nil {
		t.Fatalf("graph changed when its input buffer was overwritten: %v", err)
	}

	// One scratch, released and taken again, is the common case on one
	// goroutine; decode documents of other shapes through it, built and
	// unbuilt, and keep one unbuilt while the next decodes.
	d, _, err := graph.DecodeJSON(resNet50Doc(t))
	if err != nil {
		t.Fatal(err)
	}
	built := d.Graph()
	d.Release()
	for _, name := range []string{"InceptionResNetv2", "VGG16", "ResNet50"} {
		var buf bytes.Buffer
		if err := models.MustLoad(name).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		held, _, err := graph.DecodeJSON(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := graph.ParseJSON(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		held.Release()
	}
	if err := sameGraph(built, want); err != nil {
		t.Fatalf("graph changed when the next decodes reused its scratch: %v", err)
	}
}

// BenchmarkDecodeJSON is what a schedule cache hit on an inline ResNet50
// pays to decode, check and fingerprint it.
func BenchmarkDecodeJSON(b *testing.B) {
	doc := resNet50Doc(b)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, _, err := graph.DecodeJSON(doc)
		if err != nil {
			b.Fatal(err)
		}
		d.Release()
	}
}

func BenchmarkParseJSON(b *testing.B) {
	doc := resNet50Doc(b)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := graph.ParseJSON(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseJSONZoo decodes every zoo model's WriteJSON document per
// op; its MB/s is the decoder's throughput over the documents clients send.
func BenchmarkParseJSONZoo(b *testing.B) {
	var docs [][]byte
	var total int64
	for _, name := range models.Names() {
		var buf bytes.Buffer
		if err := models.MustLoad(name).WriteJSON(&buf); err != nil {
			b.Fatal(err)
		}
		docs = append(docs, buf.Bytes())
		total += int64(buf.Len())
	}
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, doc := range docs {
			if _, _, err := graph.ParseJSON(doc); err != nil {
				b.Fatal(err)
			}
		}
	}
}
