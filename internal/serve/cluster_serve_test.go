// Serve-layer fleet tests: a batch is solved where it is admitted, even
// with the peer dead, and forwarded-header loop prevention. The full chaos and
// partition suite lives in the repo root integration tests.
package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"respect/internal/graph"
	"respect/internal/models"
	"respect/internal/serve"
)

// pairNames are the advertise URLs of newPair's replicas. The ring hashes
// these names, not the listeners' ephemeral ports, so which replica owns a
// key is the same on every run; ClusterConfig.Dial routes each name to its
// replica's listener. A test that needs a key on a given replica states
// which, and says to change these names if the ring's hash ever moves it.
var pairNames = [2]string{"http://replica-0.test:1", "http://replica-1.test:1"}

// newPair boots two clustered replicas of cfg wired to each other and
// returns them with their base URLs and a function that stops each one.
func newPair(t *testing.T, cfg serve.Config) (srvs [2]*serve.Server, urls [2]string, kill [2]func()) {
	t.Helper()
	var lns [2]net.Listener
	listeners := make(map[string]string, len(lns))
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
		listeners[strings.TrimPrefix(pairNames[i], "http://")] = ln.Addr().String()
	}
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		return new(net.Dialer).DialContext(ctx, network, listeners[addr])
	}
	for i := range lns {
		cfg.Cluster = serve.ClusterConfig{Advertise: pairNames[i], Peers: pairNames[:], Dial: dial}
		srv, err := serve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := &httptest.Server{Listener: lns[i], Config: &http.Server{Handler: srv}}
		ts.Start()
		t.Cleanup(ts.Close)
		srvs[i] = srv
		kill[i] = ts.Close
	}
	return srvs, urls, kill
}

// wantOwner fails t unless the ring places the key fp of what on replica
// want of newPair, as the test states.
func wantOwner(t *testing.T, srv *serve.Server, what string, fp uint64, want int) {
	t.Helper()
	if owner, _ := srv.Cluster().Owner(fp); owner != pairNames[want] {
		t.Fatalf("the ring places %s on %s, not on %s as this test states; if the ring's hash changed, change pairNames until it splits the test's keys as stated", what, owner, pairNames[want])
	}
}

// pairGraph builds a distinct buildable chain graph and its wire form.
func pairGraph(t *testing.T, seed int) (*graph.Graph, json.RawMessage) {
	t.Helper()
	g := graph.New(fmt.Sprintf("pair-%d", seed))
	for i := 0; i < 5; i++ {
		g.AddNode(graph.Node{Name: fmt.Sprintf("n%d", i), ParamBytes: int64(500 + 91*seed + i), OutBytes: 4})
		if i > 0 {
			g.AddEdge(i-1, i)
		}
	}
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return g, json.RawMessage(buf.Bytes())
}

// TestBatchSolvedWhereAdmitted sends one batch of zoo models owned by
// both replicas of a fleet, and two inline graphs, to the replica that
// is not the recording peer: its items equal a standalone server's for
// the same body, nothing is relayed, and the peer receives no request.
func TestBatchSolvedWhereAdmitted(t *testing.T) {
	peer := newRecordingOwner(t, 0)
	fleet, _ := newForwarderWith(t, serve.Config{WarmModels: []string{}}, peer.ts.URL, models.Names())
	_, g0 := pairGraph(t, 0)
	_, g1 := pairGraph(t, 1)
	body, err := json.Marshal(serve.BatchRequest{Models: models.Names(), Graphs: []json.RawMessage{g0, g1}, Stages: 4})
	if err != nil {
		t.Fatal(err)
	}
	standalone, err := serve.New(serve.Config{WarmModels: []string{}})
	if err != nil {
		t.Fatal(err)
	}
	items := func(h http.Handler) []serve.BatchItemJSON {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		var out serve.BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("batch: status %d, decode error %v: %s", rec.Code, err, rec.Body.Bytes())
		}
		for i := range out.Items {
			out.Items[i].ElapsedMS = 0
		}
		return out.Items
	}
	got, want := items(fleet), items(standalone)
	if len(got) != len(models.Names())+2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet items differ from a standalone server's:\n got %+v\nwant %+v", got, want)
	}
	if n := fleet.ClusterStats().ForwardsRelayed; n != 0 {
		t.Fatalf("forwards_relayed %d after a batch, want 0", n)
	}
	peer.mu.Lock()
	defer peer.mu.Unlock()
	if len(peer.bodies) != 0 {
		t.Fatalf("the peer received %d requests, want none", len(peer.bodies))
	}
}

// TestClusterBatchFallbackOnDeadOwner kills the peer and sends a batch
// of graphs owned by both replicas: every item must still come back
// solved on the replica that admitted it, and no forward is attempted
// to the dead peer.
func TestClusterBatchFallbackOnDeadOwner(t *testing.T) {
	// The batch is pair graphs 0-5; the dead replica 1 owns 2, 3 and 4.
	owners := [6]int{0, 0, 1, 1, 1, 0}
	srvs, urls, kill := newPair(t, serve.Config{WarmModels: []string{}})
	var raws []json.RawMessage
	for seed, owner := range owners {
		g, raw := pairGraph(t, seed)
		wantOwner(t, srvs[0], g.Name, g.Fingerprint(), owner)
		raws = append(raws, raw)
	}
	kill[1]()

	resp, data := postJSON(t, urls[0]+"/v1/batch", serve.BatchRequest{Graphs: raws, Stages: 4, Class: "interactive"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with dead peer: %d: %s", resp.StatusCode, data)
	}
	var out serve.BatchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
	if len(out.Items) != len(raws) || out.Errors != 0 {
		t.Fatalf("items lost to the dead peer: %d items / %d errors, want %d / 0",
			len(out.Items), out.Errors, len(raws))
	}
	for i, item := range out.Items {
		if len(item.Stage) == 0 {
			t.Fatalf("item %d unsolved with the peer dead", i)
		}
	}
	if st := srvs[0].ClusterStats(); st.ForwardErrors != 0 || st.ForwardsRelayed != 0 {
		t.Fatalf("a batch reached for the dead peer: %d forward errors, %d relayed", st.ForwardErrors, st.ForwardsRelayed)
	}
}

// TestClusterForwardLoopPrevention marks a request as already forwarded:
// the receiving replica must solve locally even for a remote-owned
// fingerprint, bounding any membership disagreement to one hop.
func TestClusterForwardLoopPrevention(t *testing.T) {
	srvs, urls, _ := newPair(t, serve.Config{WarmModels: []string{}})

	// Pair graph 2, owned by replica 1, sent to replica 0 with the
	// forwarded marker already set.
	g, raw := pairGraph(t, 2)
	wantOwner(t, srvs[0], g.Name, g.Fingerprint(), 1)
	body, err := json.Marshal(serve.ScheduleRequest{Graph: raw, Stages: 4})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost,
		urls[0]+"/v1/schedule", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.ForwardedFromHeader, "http://somewhere.invalid:1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request: %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get(serve.ForwardedToHeader); got != "" {
		t.Fatalf("already-forwarded request was re-forwarded to %q", got)
	}
	if srvs[0].ClusterStats().ForwardsRelayed != 0 {
		t.Fatal("relay counter moved on an already-forwarded request")
	}
}

// TestForwardedAnswerIsNeverTruncated caps bodies at 1 KB and asks the
// replica that does not own it for every zoo model by name. The request
// fits the cap and goes to the owner; the owner's answer may not. An
// answer over the cap is a forward error and the request is solved
// locally, never relayed cut short with the owner's status.
func TestForwardedAnswerIsNeverTruncated(t *testing.T) {
	const limit = 1024
	srvs, urls, _ := newPair(t, serve.Config{
		WarmModels:   []string{},
		MaxBodyBytes: limit,
		Classes: map[serve.Class]serve.ClassPolicy{
			serve.ClassInteractive: {Budget: 30 * time.Second, Backends: []string{"heur"}, MaxConcurrent: 4, MaxQueue: 4},
		},
	})
	relayed, fellBack := 0, 0
	for _, name := range models.Names() {
		_, ownerIs0 := srvs[0].Cluster().Owner(models.MustLoad(name).Fingerprint())
		entry := 0
		if ownerIs0 {
			entry = 1
		}
		before := srvs[entry].ClusterStats().ForwardErrors
		resp, data := postJSON(t, urls[entry]+"/v1/schedule", serve.ScheduleRequest{Model: name, Stages: 4})
		if resp.StatusCode != http.StatusOK || !json.Valid(data) {
			t.Fatalf("%s via replica %d: status %d, %d bytes, valid JSON %v", name, entry, resp.StatusCode, len(data), json.Valid(data))
		}
		errs := srvs[entry].ClusterStats().ForwardErrors - before
		if resp.Header.Get(serve.ForwardedToHeader) != "" {
			relayed++
			if len(data) > limit || errs != 0 {
				t.Fatalf("%s: relayed a %d-byte answer past the %d-byte cap (%d forward errors)", name, len(data), limit, errs)
			}
		} else {
			fellBack++
			if errs != 1 {
				t.Fatalf("%s: solved locally with %d forward errors counted, want 1", name, errs)
			}
		}
	}
	t.Logf("%d answers relayed, %d over the cap solved locally", relayed, fellBack)
	if relayed == 0 || fellBack == 0 {
		t.Fatalf("%d answers relayed and %d over the cap: the cap no longer splits the zoo", relayed, fellBack)
	}
}
