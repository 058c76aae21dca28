// Tests of the request-body path: the envelope walker's contract against
// the encoding/json decode it replaced (what is kept, what is stricter),
// trailing bytes, and the forwarding hop that relays the bytes it read.
package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"respect/internal/cluster"
	"respect/internal/graph"
	"respect/internal/models"
	"respect/internal/serve"
)

const tinyGraph = `{"name":"t","nodes":[{"name":"a","param_bytes":10},{"name":"b","param_bytes":10}],"edges":[[0,1]]}`

// negGraph is well-formed JSON for a graph no solver's bounds hold on.
const negGraph = `{"nodes":[{"name":"a","param_bytes":-5},{"name":"b"}],"edges":[[0,1]]}`

// TestEnvelopeContract pins, per request body, what the single-pass
// decoder keeps from encoding/json with DisallowUnknownFields and the
// closed list of places where it is stricter.
func TestEnvelopeContract(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{WarmModels: []string{}, RT: serve.RTConfig{Enabled: true}})
	cases := []struct {
		name, path, body string
		want             int
		wantErr          string // substring of the error body
	}{
		// Kept on purpose.
		{"members in any order, any spacing", "/v1/schedule", " {\n\"stages\" : 2 ,\t\"graph\":" + tinyGraph + ", \"class\":\"batch\" }\n", 200, ""},
		{"unknown members inside the graph are ignored", "/v1/schedule", `{"graph":{"version":3,"nodes":[{"name":"a","dtype":"int8"}],"meta":{"x":[1]}},"stages":1}`, 200, ""},
		{"null graph is a graph with no nodes", "/v1/schedule", `{"graph":null}`, 400, "graph has no nodes"},
		{"model together with graph", "/v1/schedule", `{"model":"VGG16","graph":` + tinyGraph + `}`, 400, "not both"},
		{"model together with a null graph", "/v1/schedule", `{"model":"VGG16","graph":null}`, 400, "not both"},
		{"null scalars are absent scalars", "/v1/schedule", `{"model":"VGG16","stages":null,"class":null,"backends":null,"trace":null}`, 200, ""},
		{"last repeated scalar wins", "/v1/schedule", `{"model":"NoSuchNet","model":"VGG16"}`, 200, ""},
		{"escaped member name", "/v1/schedule", `{"m\u006fdel":"VGG16"}`, 200, ""},
		{"null body is the empty request", "/v1/schedule", `null`, 400, "one of model or graph is required"},
		{"unknown envelope member", "/v1/schedule", `{"model":"VGG16","priority":9}`, 400, "unknown field"},
		{"scalar of the wrong type", "/v1/schedule", `{"model":"VGG16","stages":"4"}`, 400, "stages"},
		{"class error comes before the graph's", "/v1/schedule", `{"graph":{"nodes":[{}],"edges":[[0,0]]},"class":"platinum"}`, 400, "unknown class"},
		{"graph error after the envelope is walked", "/v1/schedule", `{"graph":{"nodes":[{}],"edges":[[0,0]]},"class":"batch"}`, 400, "self edge"},
		{"batch graphs decode in place", "/v1/batch", `{"graphs":[` + tinyGraph + `,` + tinyGraph + `],"models":["VGG16"],"stages":2}`, 200, ""},
		{"batch names the first bad graph", "/v1/batch", `{"graphs":[` + tinyGraph + `,{"nodes":[{}],"edges":[[0,7]]},{"nodes":7}],"stages":1}`, 400, "graphs[1]"},
		{"batch null graph element", "/v1/batch", `{"graphs":[null]}`, 400, "graphs[0]: graph has no nodes"},
		{"batch null graphs member", "/v1/batch", `{"graphs":null,"models":["VGG16"]}`, 200, ""},
		{"periodic inline graph", "/v1/periodic", `{"name":"s1","graph":` + tinyGraph + `,"stages":2,"period_ms":1000,"cost_ms":1}`, 201, ""},
		// Stricter than encoding/json: the same list graph.ParseJSON has.
		{"member name in another case", "/v1/schedule", `{"Model":"VGG16"}`, 400, "unknown field"},
		{"second graph member", "/v1/schedule", `{"graph":` + tinyGraph + `,"graph":` + tinyGraph + `}`, 400, "duplicate"},
		{"second graphs member", "/v1/batch", `{"graphs":[` + tinyGraph + `],"graphs":[]}`, 400, "duplicate"},
		// Refused by graph.Build, whichever way the graph arrives.
		{"negative weight (schedule)", "/v1/schedule", `{"graph":` + negGraph + `,"stages":2}`, 400, "node 0: negative param_bytes"},
		{"negative weight (batch)", "/v1/batch", `{"graphs":[` + tinyGraph + `,` + negGraph + `],"stages":2}`, 400, "graphs[1]: graph \"\": node 0: negative param_bytes"},
		{"negative weight (periodic)", "/v1/periodic", `{"name":"s3","graph":` + negGraph + `,"stages":2,"period_ms":1000,"cost_ms":1}`, 400, "node 0: negative param_bytes"},
		{"sibling weights that sum past int64", "/v1/schedule", `{"graph":{"nodes":[{},{"param_bytes":9223372036854775807},{"param_bytes":9223372036854775807}],"edges":[[0,1],[0,2]]},"stages":2,"class":"batch"}`, 400, "node 2: attribute totals overflow int64"},
		// The bug fixed with the walker: json.Decoder stopped at the brace.
		{"bytes after the object (schedule)", "/v1/schedule", `{"model":"VGG16"} trailing-garbage`, 400, "after the request object"},
		{"bytes after the object (batch)", "/v1/batch", `{"models":["VGG16"]}{}`, 400, "after the request object"},
		{"bytes after the object (periodic)", "/v1/periodic", `{"name":"s2","model":"VGG16","period_ms":1000,"cost_ms":1}]`, 400, "after the request object"},
		{"whitespace after the object", "/v1/schedule", "{\"model\":\"VGG16\"} \r\n\t", 200, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postJSON(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.want, data)
			}
			if tc.want >= 400 {
				var e serve.ErrorResponse
				decodeInto(t, data, &e)
				if !strings.Contains(e.Error, tc.wantErr) {
					t.Fatalf("error %q does not mention %q", e.Error, tc.wantErr)
				}
			}
		})
	}
}

// recordingOwner is a stand-in home shard: it records each /v1/schedule
// body it is sent and counts the connections opened to it and those still
// open. With gate set, a request waits until gate requests are in flight,
// so a round of that many forwards needs that many connections at once.
// It answers heartbeat probes as a healthy peer.
type recordingOwner struct {
	ts    *httptest.Server
	conns atomic.Int64
	open  atomic.Int64
	gate  int

	mu      sync.Mutex
	bodies  [][]byte
	waiting int
	release chan struct{}
}

func newRecordingOwner(t *testing.T, gate int) *recordingOwner {
	o := &recordingOwner{gate: gate, release: make(chan struct{})}
	o.ts = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == cluster.HeartbeatPath {
			json.NewEncoder(w).Encode(cluster.HeartbeatMessage{From: o.ts.URL, FingerprintVersion: graph.FingerprintVersion})
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		o.mu.Lock()
		o.bodies = append(o.bodies, body)
		release := o.release
		if o.waiting++; o.waiting == o.gate {
			o.waiting, o.release = 0, make(chan struct{})
			close(release)
		}
		o.mu.Unlock()
		if o.gate > 0 {
			<-release
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"graph":"from-the-owner"}`)
	}))
	o.ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		switch state {
		case http.StateNew:
			o.conns.Add(1)
			o.open.Add(1)
		case http.StateClosed, http.StateHijacked:
			o.open.Add(-1)
		}
	}
	o.ts.Start()
	t.Cleanup(o.ts.Close)
	return o
}

// newForwarderTo returns a replica whose only peer is owner, with the
// zoo models (of the candidates) whose key the peer owns.
func newForwarderTo(t *testing.T, owner string, candidates []string) (*httptest.Server, []string) {
	t.Helper()
	srv, owned := newForwarderWith(t, serve.Config{WarmModels: []string{}}, owner, candidates)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, owned
}

// newForwarderWith builds a replica from cfg whose only peer is owner,
// and returns it with the zoo models (of the candidates) whose key the
// peer owns. The ring hashes the advertise URLs and the owner's port is
// random, so the replica tries advertise names until the candidates are
// split: the peer owns at least one and, of two or more, not all.
func newForwarderWith(t *testing.T, cfg serve.Config, owner string, candidates []string) (*serve.Server, []string) {
	t.Helper()
	for try := 0; try < 64; try++ {
		self := fmt.Sprintf("http://forwarder-%d.test:80", try)
		cfg.Cluster.Advertise, cfg.Cluster.Peers = self, []string{self, owner}
		srv, err := serve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var owned []string
		for _, name := range candidates {
			if _, mine := srv.Cluster().Owner(models.MustLoad(name).Fingerprint()); !mine {
				owned = append(owned, name)
			}
		}
		if len(owned) > 0 && (len(owned) < len(candidates) || len(candidates) == 1) {
			return srv, owned
		}
	}
	t.Fatal("no advertise name split the candidate models between the replica and its peer")
	return nil, nil
}

// TestRelayForwardsTheBytesItRead: the owner receives, byte for byte,
// the body the forwarder received, whatever its spacing or member order,
// and the client receives the owner's answer.
func TestRelayForwardsTheBytesItRead(t *testing.T) {
	owner := newRecordingOwner(t, 0)
	fwd, owned := newForwarderTo(t, owner.ts.URL, models.Names())

	g := models.MustLoad(owned[0])
	var doc bytes.Buffer
	if err := g.WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	sent := [][]byte{
		[]byte("{ \"stages\":4,\n\t\"model\" : \"" + owned[0] + "\" }\n\n"),
		[]byte("{\"class\":\"interactive\",\r\n \"graph\": " + doc.String() + " , \"stages\": 5}"),
	}
	for _, body := range sent {
		resp, err := http.Post(fwd.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 || resp.Header.Get(serve.ForwardedToHeader) != owner.ts.URL || !bytes.Contains(data, []byte("from-the-owner")) {
			t.Fatalf("not relayed: %d %q %s", resp.StatusCode, resp.Header.Get(serve.ForwardedToHeader), data)
		}
	}
	owner.mu.Lock()
	defer owner.mu.Unlock()
	if len(owner.bodies) != len(sent) {
		t.Fatalf("owner saw %d requests, want %d", len(owner.bodies), len(sent))
	}
	for i := range sent {
		if !bytes.Equal(owner.bodies[i], sent[i]) {
			t.Errorf("request %d reached the owner changed:\n got %q\nwant %q", i, owner.bodies[i], sent[i])
		}
	}
}

// newDiscardingOwner is a stand-in home shard that reads each body into
// nothing and answers 200: what it allocates does not grow with the
// body, so what a hop allocates is the forwarder's.
func newDiscardingOwner(t *testing.T) *httptest.Server {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"graph":"from-the-owner"}`)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// bytesPerRequest calls post once, so that connections, pools, caches
// and zoo graphs exist, then returns what the whole process (client,
// servers and stand-ins alike) allocates per call over 40 more.
func bytesPerRequest(post func()) uint64 {
	post()
	const requests = 40
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		post()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / requests
}

// modelDoc is the zoo model's WriteJSON document.
func modelDoc(t *testing.T, name string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := models.MustLoad(name).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// buildBytes is what decoding and building doc allocates.
func buildBytes(t *testing.T, doc []byte) uint64 {
	return bytesPerRequest(func() {
		if _, _, err := graph.ParseJSON(doc); err != nil {
			t.Fatal(err)
		}
	})
}

// serveSchedule hands body to h as a POST /v1/schedule, in process, and
// returns the status, the forwarding header and the response body. No
// client sits in between, so what a measurement around it counts is the
// server's (and, on a forward, the hop's and the stand-in owner's).
func serveSchedule(h http.Handler, body []byte) (int, string, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
	return rec.Code, rec.Header().Get(serve.ForwardedToHeader), rec.Body.Bytes()
}

// inlineAndByName returns a /v1/schedule body with the model's document
// inline, and one that names the model, padded with whitespace to the
// same length. Sending, reading, relaying and answering the two allocate
// the same, so what the inline one allocates beyond the other is what
// its document costs: the decode, and a build if there is one.
func inlineAndByName(t *testing.T, model, members string) (inline, byName []byte) {
	inline = []byte(`{"graph":` + string(modelDoc(t, model)) + members + `}`)
	head, tail := `{"model":"`+model+`"`, members+`}`
	return inline, []byte(head + strings.Repeat(" ", len(inline)-len(head)-len(tail)) + tail)
}

// TestByNameForwardBuildsNoGraph: routing a request needs its graph's
// fingerprint, which is a field of the shared zoo graph for a by-name
// request and comes out of the decode for an inline one. A forward
// (forwarder and stand-in owner together) must allocate far less than
// one build of the model would (216-343 KB for these five), and an
// inline forward or cache hit must add far less than one build to what
// a by-name request of the same size allocates. A refused inline
// document gets the same 400 from a forwarder as from a standalone
// server. The race detector drops pooled scratch, so under it the inline
// requests run but their allocations are not held to a budget.
func TestByNameForwardBuildsNoGraph(t *testing.T) {
	owner := newDiscardingOwner(t)
	fwd, owned := newForwarderTo(t, owner.URL,
		[]string{"InceptionResNetv2", "DenseNet201", "DenseNet169", "ResNet152v2", "ResNet152"})
	forward := func(body []byte) func() {
		return func() {
			if code, to, data := serveSchedule(fwd.Config.Handler, body); to == "" {
				t.Fatalf("%s was not forwarded (status %d: %s)", owned[0], code, data)
			}
		}
	}
	shared := models.MustLoad(owned[0])
	if perReq := bytesPerRequest(forward([]byte(`{"model":"` + owned[0] + `","stages":4}`))); perReq > 100<<10 {
		t.Errorf("a forwarded by-name request allocates %d KB; building %s is 216 KB or more", perReq>>10, owned[0])
	}
	if models.MustLoad(owned[0]) != shared {
		t.Fatalf("%s was rebuilt", owned[0])
	}

	doc := modelDoc(t, owned[0])
	build := buildBytes(t, doc)
	inline, byName := inlineAndByName(t, owned[0], `,"stages":4`)
	in, by := bytesPerRequest(forward(inline)), bytesPerRequest(forward(byName))
	if in > by+build/4 && !raceEnabled {
		t.Errorf("a forwarded inline request allocates %d KB, by name %d KB; building %s is %d KB", in>>10, by>>10, owned[0], build>>10)
	}

	local, _ := newTestServer(t, serve.Config{WarmModels: []string{}})
	hit := func(body []byte) func() {
		return func() {
			if code, _, data := serveSchedule(local, body); code != http.StatusOK || !bytes.Contains(data, []byte(`"cache_hit":true`)) {
				t.Fatalf("not a cache hit (status %d): %.200s", code, data)
			}
		}
	}
	serveSchedule(local, inline) // the miss
	in, by = bytesPerRequest(hit(inline)), bytesPerRequest(hit(byName))
	if in > by+build/4 && !raceEnabled {
		t.Errorf("an inline cache hit allocates %d KB, by name %d KB; building %s is %d KB", in>>10, by>>10, owned[0], build>>10)
	}

	// The cycle is in a document whose graph the peer would own.
	cyclic := bytes.Replace(doc, []byte(`"edges": [`), []byte(`"edges": [[1, 0],`), 1)
	for _, body := range []string{
		`{"graph":{"nodes":[{}],"edges":[[0,0]]},"stages":1}`,
		`{"graph":{"nodes":[{"macs":1.5}]},"stages":1}`,
		`{"graph":` + negGraph + `,"stages":2}`,
		`{"graph":` + string(cyclic) + `,"stages":4}`,
	} {
		code, to, got := serveSchedule(fwd.Config.Handler, []byte(body))
		wantCode, _, want := serveSchedule(local, []byte(body))
		if code != http.StatusBadRequest || to != "" || code != wantCode || !bytes.Equal(got, want) {
			t.Errorf("forwarder answered %d %q (forwarded to %q), standalone %d %q", code, got, to, wantCode, want)
		}
	}
}

// TestInlineGraphBuiltOnlyWhenNeeded: an inline document is built only
// for a consumer of the graph itself. A cache hit reads the document's
// name, node count and fingerprint; a miss races on the graph, a pinned
// portfolio bypasses the memo and races on it, and speculation's tap and
// the learning loop's sample keep it. Each row compares an inline
// request with a by-name one of the same size, which builds nothing: the
// shared zoo graph serves all of those. Under the race detector the
// requests run unchecked, as in TestByNameForwardBuildsNoGraph.
func TestInlineGraphBuiltOnlyWhenNeeded(t *testing.T) {
	const model, other = "DenseNet169", "DenseNet201"
	build := buildBytes(t, modelDoc(t, model))
	heurOnly := serve.DefaultClasses()
	policy := heurOnly[serve.ClassInteractive]
	policy.Backends = []string{"heur"} // one backend allocates the same on every solve
	heurOnly[serve.ClassInteractive] = policy
	cases := []struct {
		name    string
		cfg     serve.Config
		members string // envelope members after the graph
		built   bool
	}{
		{"cache hit", serve.Config{}, `,"stages":4`, false},
		{"miss (a one-entry cache, two models in turn)", serve.Config{CacheSize: 1, Classes: heurOnly}, `,"stages":4`, true},
		{"pinned backends", serve.Config{}, `,"stages":4,"backends":["heur"]`, true},
		{"-speculate", serve.Config{Speculation: serve.SpeculationConfig{Enabled: true}}, `,"stages":4`, true},
		{"-online", serve.Config{Online: serve.OnlineConfig{Enabled: true}}, `,"stages":4`, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.WarmModels = []string{}
			srv, _ := newTestServer(t, tc.cfg)
			inline, byName := inlineAndByName(t, model, tc.members)
			// In the one-entry cache, a request for the other model
			// evicts each one of these.
			_, evict := inlineAndByName(t, other, tc.members)
			perReq := func(body []byte) uint64 {
				return bytesPerRequest(func() {
					for _, b := range [][]byte{body, evict} {
						if code, _, data := serveSchedule(srv, b); code != http.StatusOK {
							t.Fatalf("status %d: %.200s", code, data)
						}
					}
				})
			}
			in, by := perReq(inline), perReq(byName)
			if built := in >= by+build/2; built != tc.built && !raceEnabled {
				t.Errorf("inline %d KB per request, by name %d KB, one build %d KB: want built = %v", in>>10, by>>10, build>>10, tc.built)
			}
		})
	}
}

// TestInlineDocumentsConcurrently: every inline document decodes into
// scratch from one pool and holds it until its request is answered, so
// handlers that run at once must each answer for their own document (its
// name, its node count, a stage per node), hit or miss, with refused
// documents going back to the pool in between.
func TestInlineDocumentsConcurrently(t *testing.T) {
	srv, _ := newTestServer(t, serve.Config{WarmModels: []string{}})
	var wg sync.WaitGroup
	for _, name := range []string{"VGG16", "MobileNet", "Xception", "ResNet50"} {
		body := []byte(`{"graph":` + string(modelDoc(t, name)) + `,"stages":4}`)
		nodes := models.MustLoad(name).NumNodes()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				code, _, data := serveSchedule(srv, body)
				var resp serve.ScheduleResponse
				if err := json.Unmarshal(data, &resp); code != http.StatusOK || err != nil ||
					resp.Graph != name || resp.Nodes != nodes || len(resp.Stage) != nodes {
					t.Errorf("%s: status %d, answered for %q (%d nodes, %d stages)", name, code, resp.Graph, resp.Nodes, len(resp.Stage))
					return
				}
				if code, _, _ := serveSchedule(srv, []byte(`{"graph":`+negGraph+`,"stages":2}`)); code != http.StatusBadRequest {
					t.Errorf("a refused document got status %d", code)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestForwardingReusesConnections: forwards run before admission, so
// many connections to one peer are in flight at once; each must go back
// to the idle stack, not be closed and re-dialed on the next burst.
func TestForwardingReusesConnections(t *testing.T) {
	const concurrent, rounds = 16, 10
	owner := newRecordingOwner(t, concurrent)
	fwd, owned := newForwarderTo(t, owner.ts.URL, models.Names())
	body := []byte(`{"model":"` + owned[0] + `"}`)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: concurrent}}
	defer client.CloseIdleConnections()

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for i := 0; i < concurrent; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := client.Post(fwd.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.Header.Get(serve.ForwardedToHeader) == "" {
					t.Errorf("request was not forwarded (status %d)", resp.StatusCode)
				}
			}()
		}
		wg.Wait()
	}
	if n := owner.conns.Load(); n > concurrent {
		t.Fatalf("%d rounds of %d concurrent forwards opened %d connections to the owner, want at most %d",
			rounds, concurrent, n, concurrent)
	}
}
