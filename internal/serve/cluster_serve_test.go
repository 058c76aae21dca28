// Serve-layer fleet tests: batch sub-batch forwarding with per-group
// fallback, and forwarded-header loop prevention. The full chaos and
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
	"testing"
	"time"

	"respect/internal/graph"
	"respect/internal/models"
	"respect/internal/serve"
)

// newPair boots two clustered replicas of cfg wired to each other and
// returns them with their base URLs.
func newPair(t *testing.T, cfg serve.Config) (srvs [2]*serve.Server, urls [2]string, kill [2]func()) {
	t.Helper()
	var lns [2]net.Listener
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	for i := range lns {
		cfg.Cluster = serve.ClusterConfig{Advertise: urls[i], Peers: urls[:]}
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

// TestClusterBatchSplitsByOwner sends a mixed-ownership batch to one
// replica: remote-owned items come back annotated with the owner that
// solved them, local items do not, and order is preserved.
func TestClusterBatchSplitsByOwner(t *testing.T) {
	srvs, urls, _ := newPair(t, serve.Config{WarmModels: []string{}})

	// Collect graphs until both shards are represented.
	var raws []json.RawMessage
	var owners []string
	haveLocal, haveRemote := false, false
	for seed := 0; !(haveLocal && haveRemote) || len(raws) < 6; seed++ {
		g, raw := pairGraph(t, seed)
		owner, self := srvs[0].Cluster().Owner(g.Fingerprint())
		raws = append(raws, raw)
		owners = append(owners, owner)
		if self {
			haveLocal = true
		} else {
			haveRemote = true
		}
		if seed > 100 {
			t.Fatal("could not find graphs for both shards")
		}
	}

	body, err := json.Marshal(serve.BatchRequest{Graphs: raws, Stages: 4, Class: "interactive"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(urls[0]+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d: %s", resp.StatusCode, data)
	}
	var out serve.BatchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
	if len(out.Items) != len(raws) || out.Errors != 0 {
		t.Fatalf("batch returned %d items / %d errors, want %d / 0", len(out.Items), out.Errors, len(raws))
	}
	for i, item := range out.Items {
		if item.Index != i || len(item.Stage) == 0 {
			t.Fatalf("item %d: index %d with %d stages", i, item.Index, len(item.Stage))
		}
		wantForward := ""
		if owners[i] != srvs[0].Cluster().Self() {
			wantForward = owners[i]
		}
		if item.ForwardedTo != wantForward {
			t.Fatalf("item %d: forwarded_to %q, want %q", i, item.ForwardedTo, wantForward)
		}
	}
	if srvs[0].ClusterStats().ForwardsRelayed == 0 {
		t.Fatal("no batch sub-batch was relayed")
	}
}

// TestClusterBatchFallbackOnDeadOwner kills the peer and sends the same
// mixed batch: every item must still come back solved (locally), none
// annotated as forwarded.
func TestClusterBatchFallbackOnDeadOwner(t *testing.T) {
	srvs, urls, kill := newPair(t, serve.Config{WarmModels: []string{}})
	var raws []json.RawMessage
	for seed := 0; seed < 6; seed++ {
		_, raw := pairGraph(t, seed)
		raws = append(raws, raw)
	}
	kill[1]()

	body, err := json.Marshal(serve.BatchRequest{Graphs: raws, Stages: 4, Class: "interactive"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(urls[0]+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
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
			t.Fatalf("item %d unsolved after fallback", i)
		}
		if item.ForwardedTo != "" {
			t.Fatalf("item %d claims the dead peer solved it", i)
		}
	}
	_ = srvs
}

// TestClusterForwardLoopPrevention marks a request as already forwarded:
// the receiving replica must solve locally even for a remote-owned
// fingerprint, bounding any membership disagreement to one hop.
func TestClusterForwardLoopPrevention(t *testing.T) {
	srvs, urls, _ := newPair(t, serve.Config{WarmModels: []string{}})

	// A graph owned by replica 1, sent to replica 0 with the forwarded
	// marker already set.
	var raw json.RawMessage
	for seed := 0; raw == nil; seed++ {
		g, cand := pairGraph(t, seed)
		if _, self := srvs[0].Cluster().Owner(g.Fingerprint()); !self {
			raw = cand
		}
		if seed > 100 {
			t.Fatal("no remote-owned graph found")
		}
	}
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
