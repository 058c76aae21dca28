// Unit tests for the cluster layer: consistent-hash ring properties
// (agreement, balance, minimal disruption), membership state transitions
// driven through a fake in-memory probe hook, forward-target semantics
// and the heartbeat message.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"respect/internal/graph"
)

// testGraph builds a small chain graph whose fingerprint varies with i.
func testGraph(i int) *graph.Graph {
	g := graph.New(fmt.Sprintf("cluster-test-%d", i))
	for n := 0; n < 6; n++ {
		g.AddNode(graph.Node{
			Name:       fmt.Sprintf("n%d", n),
			Kind:       graph.OpConv,
			ParamBytes: int64(500 + 31*i + n),
			OutBytes:   64,
			MACs:       1000,
		})
		if n > 0 {
			g.AddEdge(n-1, n)
		}
	}
	if err := g.Build(); err != nil {
		panic(err)
	}
	return g
}

func TestRingAgreementAndBalance(t *testing.T) {
	members := []string{"http://a:1", "http://b:1", "http://c:1"}
	r1 := newRing(members)
	r2 := newRing([]string{members[2], members[0], members[1]})

	rng := rand.New(rand.NewSource(42))
	owned := map[string]int{}
	for i := 0; i < 4000; i++ {
		fp := rng.Uint64()
		o1, o2 := r1.owner(fp), r2.owner(fp)
		if o1 != o2 {
			t.Fatalf("fp %x: ring order changed owner %q -> %q", fp, o1, o2)
		}
		owned[o1]++
	}
	for _, m := range members {
		if owned[m] < 4000/3/3 {
			t.Errorf("member %s owns only %d/4000 keys; ring is badly unbalanced (%v)", m, owned[m], owned)
		}
	}
}

// TestRingBalanceSimilarURLs pins the fleet-realistic case: member URLs
// identical except for one port digit. The raw FNV point hash barely
// avalanches on a late-byte difference, leaving one member with 70%+ of
// the keyspace; the mix64 finalizer must keep every member near its
// fair third.
func TestRingBalanceSimilarURLs(t *testing.T) {
	members := []string{
		"http://127.0.0.1:18081",
		"http://127.0.0.1:18082",
		"http://127.0.0.1:18083",
	}
	r := newRing(members)
	rng := rand.New(rand.NewSource(1))
	owned := map[string]int{}
	const keys = 10000
	for i := 0; i < keys; i++ {
		owned[r.owner(rng.Uint64())]++
	}
	// With 64 vnodes/member the share's standard deviation is ~4%, so
	// anything under 20% means the points are correlated, not unlucky.
	for _, m := range members {
		if share := float64(owned[m]) / keys; share < 0.20 {
			t.Errorf("member %s owns %.1f%% of the keyspace; vnode points are correlated (%v)", m, 100*share, owned)
		}
	}
}

func TestRingMinimalDisruption(t *testing.T) {
	all := []string{"http://a:1", "http://b:1", "http://c:1"}
	full := newRing(all)
	without := newRing(all[:2]) // c removed

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		fp := rng.Uint64()
		before, after := full.owner(fp), without.owner(fp)
		if before != "http://c:1" && before != after {
			t.Fatalf("fp %x: owner moved %q -> %q though %q stayed in the ring", fp, before, after, before)
		}
	}
}

func TestRingEmpty(t *testing.T) {
	if got := newRing(nil).owner(123); got != "" {
		t.Fatalf("empty ring owner = %q, want empty", got)
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"missing self", Config{}},
		{"bad self scheme", Config{Self: "ftp://x:1"}},
		{"bad peer", Config{Self: "http://a:1", Peers: []string{"not a url://"}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New accepted invalid config", tc.name)
		}
	}

	// Self and duplicates are filtered from the peer list.
	n, err := New(Config{
		Self:  "http://a:1",
		Peers: []string{"http://a:1", "http://b:1", "http://b:1", ""},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if len(st.Members) != 2 {
		t.Fatalf("members = %+v, want self + one peer", st.Members)
	}
}

// fakePeers is a probe hook that answers heartbeat GETs from in-memory
// handlers, by advertise URL, and lets tests fail specific peers.
type fakePeers struct {
	mu       sync.Mutex
	handlers map[string]http.Handler // advertise URL -> handler
	down     map[string]bool
}

func (f *fakePeers) set(url string, h http.Handler) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.handlers == nil {
		f.handlers = make(map[string]http.Handler)
		f.down = make(map[string]bool)
	}
	f.handlers[url] = h
}

func (f *fakePeers) setDown(url string, down bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down[url] = down
}

// probe is the Config.Probe hook.
func (f *fakePeers) probe(ctx context.Context, peer string) (int, []byte, error) {
	f.mu.Lock()
	h, ok := f.handlers[peer]
	down := f.down[peer]
	f.mu.Unlock()
	if !ok || down {
		return 0, nil, fmt.Errorf("fakePeers: %s unreachable", peer)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, peer+HeartbeatPath, nil).WithContext(ctx))
	return rec.Code, rec.Body.Bytes(), nil
}

// heartbeatHandler answers heartbeat GETs as the given identity, hashing
// graphs as this build does.
func heartbeatHandler(from string) http.Handler {
	return versionHandler(from, graph.FingerprintVersion)
}

// versionHandler answers heartbeat GETs as the given identity and
// fingerprint-function version.
func versionHandler(from string, version int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(HeartbeatMessage{From: from, FingerprintVersion: version, UptimeSeconds: 1})
	})
}

func TestMembershipTransitions(t *testing.T) {
	fake := &fakePeers{}
	fake.set("http://b:1", heartbeatHandler("http://b:1"))
	n, err := New(Config{
		Self:  "http://a:1",
		Peers: []string{"http://b:1"},
		Probe: fake.probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	stateOf := func(url string) string {
		for _, m := range n.Stats().Members {
			if m.URL == url {
				return m.State
			}
		}
		return "missing"
	}

	n.ProbeOnce(ctx)
	if got := stateOf("http://b:1"); got != "alive" {
		t.Fatalf("after healthy probe: state %s, want alive", got)
	}

	fake.setDown("http://b:1", true)
	n.ProbeOnce(ctx)
	if got := stateOf("http://b:1"); got != "suspect" {
		t.Fatalf("after 1 failure: state %s, want suspect", got)
	}
	if n.Rebalances() != 0 {
		t.Fatalf("suspect transition rebuilt the ring (%d rebalances)", n.Rebalances())
	}
	n.ProbeOnce(ctx)
	n.ProbeOnce(ctx)
	if got := stateOf("http://b:1"); got != "dead" {
		t.Fatalf("after 3 failures: state %s, want dead", got)
	}
	if n.Rebalances() != 1 {
		t.Fatalf("dead transition: %d rebalances, want 1", n.Rebalances())
	}
	// A dead peer owns nothing: every fingerprint is self-owned now.
	for i := 0; i < 100; i++ {
		if owner, self := n.Owner(uint64(i) * 0x9e3779b97f4a7c15); !self {
			t.Fatalf("dead-peer ring still routes to %s", owner)
		}
	}

	// Recovery: one healthy probe resurrects the peer and rebalances back.
	fake.setDown("http://b:1", false)
	n.ProbeOnce(ctx)
	if got := stateOf("http://b:1"); got != "alive" {
		t.Fatalf("after recovery: state %s, want alive", got)
	}
	if n.Rebalances() != 2 {
		t.Fatalf("recovery: %d rebalances, want 2", n.Rebalances())
	}
}

func TestProbeRejectsIdentityMismatch(t *testing.T) {
	fake := &fakePeers{}
	// The server at b:1 claims to be someone else — a misconfigured peer
	// list must read as unhealthy, not silently join the ring.
	fake.set("http://b:1", heartbeatHandler("http://evil:1"))
	n, err := New(Config{
		Self:  "http://a:1",
		Peers: []string{"http://b:1"},
		Probe: fake.probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < deadAfter; i++ {
		n.ProbeOnce(context.Background())
	}
	if got := n.Stats().Members[1].State; got != "dead" {
		t.Fatalf("identity mismatch: state %s after %d probes, want dead", got, deadAfter)
	}
}

// TestProbeRejectsFingerprintVersionMismatch: a peer that hashes graphs
// with another function (or does not say which) would place every key
// elsewhere on the ring, so it reads as unhealthy and is not forwarded to.
func TestProbeRejectsFingerprintVersionMismatch(t *testing.T) {
	for _, version := range []int{0, graph.FingerprintVersion + 1} {
		fake := &fakePeers{}
		fake.set("http://b:1", versionHandler("http://b:1", version))
		n, err := New(Config{
			Self:  "http://a:1",
			Peers: []string{"http://b:1"},
			Probe: fake.probe,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < deadAfter; i++ {
			n.ProbeOnce(context.Background())
		}
		if st, _ := n.PeerState("http://b:1"); st != StateDead {
			t.Fatalf("version %d: state %s after %d probes, want dead", version, st, deadAfter)
		}
	}
}

// TestProbeNeedsHookAndOK: a Node built without a probe hook computes
// owners but counts every probe as failed, and an answer other than 200
// is a failed probe even when its body is a valid heartbeat.
func TestProbeNeedsHookAndOK(t *testing.T) {
	bare, err := New(Config{Self: "http://a:1", Peers: []string{"http://b:1"}})
	if err != nil {
		t.Fatal(err)
	}
	fake := &fakePeers{}
	fake.set("http://b:1", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(HeartbeatMessage{From: "http://b:1", FingerprintVersion: graph.FingerprintVersion})
	}))
	hooked, err := New(Config{Self: "http://a:1", Peers: []string{"http://b:1"}, Probe: fake.probe})
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]*Node{"no hook": bare, "status 503": hooked} {
		n.ProbeOnce(context.Background())
		if st, _ := n.PeerState("http://b:1"); st != StateSuspect {
			t.Errorf("%s: state %s after one probe, want suspect", name, st)
		}
	}
}

// TestTrailingSlashAdvertise: an advertise URL written with a trailing
// slash names the same replica as the one without. The replica does not
// list itself as a peer, answers heartbeats as the URL its peers dial,
// and so stays alive in their view.
func TestTrailingSlashAdvertise(t *testing.T) {
	fake := &fakePeers{}
	a, err := New(Config{
		Self:  "http://a:1/",
		Peers: []string{"http://a:1/", "http://b:1"},
		Probe: fake.probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Peers(); len(got) != 1 || got[0] != "http://b:1" {
		t.Fatalf("peers %q, want [http://b:1]", got)
	}
	if a.Self() != "http://a:1" || a.Heartbeat().From != "http://a:1" {
		t.Fatalf("self %q, heartbeat from %q: want http://a:1", a.Self(), a.Heartbeat().From)
	}

	fake.set("http://a:1", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(a.Heartbeat())
	}))
	b, err := New(Config{
		Self:  "http://b:1",
		Peers: []string{"http://a:1/", "http://b:1"},
		Probe: fake.probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < deadAfter; i++ {
		b.ProbeOnce(context.Background())
	}
	if st, _ := b.PeerState("http://a:1"); st != StateAlive {
		t.Fatalf("peer a: state %s after %d probes, want alive", st, deadAfter)
	}
}

func TestForwardTargetSemantics(t *testing.T) {
	fake := &fakePeers{}
	fake.set("http://b:1", heartbeatHandler("http://b:1"))
	n, err := New(Config{
		Self:  "http://a:1",
		Peers: []string{"http://b:1"},
		Probe: fake.probe,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Find one fingerprint owned by each member.
	var selfFP, peerFP uint64
	foundSelf, foundPeer := false, false
	for i := uint64(0); i < 10000 && (!foundSelf || !foundPeer); i++ {
		fp := i * 0x9e3779b97f4a7c15
		if _, self := n.Owner(fp); self {
			selfFP, foundSelf = fp, true
		} else {
			peerFP, foundPeer = fp, true
		}
	}
	if !foundSelf || !foundPeer {
		t.Fatal("could not find fingerprints for both members")
	}

	if _, ok := n.ForwardTarget(selfFP); ok {
		t.Fatal("self-owned fingerprint wants forwarding")
	}
	if target, ok := n.ForwardTarget(peerFP); !ok || target != "http://b:1" {
		t.Fatalf("peer-owned fingerprint: target %q ok=%v, want http://b:1 true", target, ok)
	}

	// A suspect owner is not a forward target (local fallback) but still
	// owns its range — no rebalance.
	fake.setDown("http://b:1", true)
	n.ProbeOnce(context.Background())
	if owner, self := n.Owner(peerFP); self || owner != "http://b:1" {
		t.Fatalf("suspect peer lost ownership: owner %q self=%v", owner, self)
	}
	if _, ok := n.ForwardTarget(peerFP); ok {
		t.Fatal("suspect owner is still a forward target")
	}
}

func TestHeartbeatMessage(t *testing.T) {
	n, err := New(Config{
		Self:  "http://a:1",
		Peers: []string{"http://b:1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	hb := n.Heartbeat()
	if hb.From != "http://a:1" || hb.FingerprintVersion != graph.FingerprintVersion || hb.Peers["http://b:1"] != "alive" {
		t.Fatalf("heartbeat %+v", hb)
	}
	if later := n.Heartbeat(); hb.UptimeSeconds < 0 || later.UptimeSeconds < hb.UptimeSeconds {
		t.Fatalf("uptime went %v then %v: want non-negative and non-decreasing", hb.UptimeSeconds, later.UptimeSeconds)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(hb); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeHeartbeat(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.From != hb.From || back.FingerprintVersion != hb.FingerprintVersion {
		t.Fatalf("round trip changed from or version: %+v", back)
	}

	for _, raw := range []string{`x`, `{}`, `{"from":"nope"}`} {
		if _, err := DecodeHeartbeat(strings.NewReader(raw)); err == nil {
			t.Errorf("DecodeHeartbeat accepted %q", raw)
		}
	}
}
