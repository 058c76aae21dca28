// Fleet-scale sharded serving, in-process: boots three replicas that
// know each other via a static peer list, routes distinct graphs through
// one front door to show consistent-hash forwarding to each graph's home
// shard, then kills a replica and shows the membership probes marking it
// dead, the ring rebalancing, and the surviving replicas answering every
// request. The same behaviour over the network is
//
//	respect-serve -addr :8080 -advertise http://10.0.0.1:8080 \
//	    -peers http://10.0.0.1:8080,http://10.0.0.2:8080,http://10.0.0.3:8080
//
// on each box. Membership normally advances on background probe loops;
// the demo drives deterministic ProbeOnce rounds instead so it finishes
// in milliseconds.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"

	"respect/internal/graph"
	"respect/internal/serve"
)

// replica is one in-process fleet member.
type replica struct {
	url string
	srv *serve.Server
	ts  *httptest.Server
}

// newFleet binds n listeners first (so every config can carry the full
// peer URL list), then starts a server on each.
func newFleet(n int) []*replica {
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*replica, n)
	for i := range lns {
		srv, err := serve.New(serve.Config{
			WarmModels: []string{},
			Cluster: serve.ClusterConfig{
				Advertise: urls[i],
				Peers:     append([]string(nil), urls...),
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		ts := &httptest.Server{Listener: lns[i], Config: &http.Server{Handler: srv}}
		ts.Start()
		nodes[i] = &replica{url: urls[i], srv: srv, ts: ts}
	}
	return nodes
}

// probeRound advances membership one deterministic step on every live
// replica.
func probeRound(nodes []*replica) {
	for _, n := range nodes {
		if n != nil {
			n.srv.Cluster().ProbeOnce(context.Background())
		}
	}
}

// demoGraph builds a small chain whose parameters vary with seed, so
// every seed yields a distinct fingerprint — and a distinct home shard.
func demoGraph(seed int) []byte {
	g := graph.New(fmt.Sprintf("fleet-%d", seed))
	prev := -1
	for i := 0; i < 4+seed%5; i++ {
		id := g.AddNode(graph.Node{
			Name:       fmt.Sprintf("n%d", i),
			ParamBytes: int64(1000 + 977*seed + i),
			OutBytes:   int64(8 + i),
			MACs:       int64(100 + seed),
		})
		if prev >= 0 {
			g.AddEdge(prev, id)
		}
		prev = id
	}
	if err := g.Build(); err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		log.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"graph": json.RawMessage(buf.Bytes()), "stages": 3})
	if err != nil {
		log.Fatal(err)
	}
	return body
}

// schedule posts one graph to the front door and reports which shard
// answered (empty = solved locally by the front door itself).
func schedule(frontDoor string, body []byte) (shard string, err error) {
	resp, err := http.Post(frontDoor+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("schedule: HTTP %d", resp.StatusCode)
	}
	return resp.Header.Get(serve.ForwardedToHeader), nil
}

func main() {
	nodes := newFleet(3)
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.ts.Close()
			}
		}
	}()
	fmt.Println("fleet of 3 replicas:")
	for i, n := range nodes {
		fmt.Printf("  replica %d at %s\n", i, n.url)
	}

	// One probe round and everyone has seen everyone answer a heartbeat.
	probeRound(nodes)

	// Route 12 distinct graphs through replica 0: each one is solved on
	// its home shard, wherever the fingerprint hashes.
	const graphs = 12
	byShard := map[string]int{}
	for seed := 0; seed < graphs; seed++ {
		shard, err := schedule(nodes[0].url, demoGraph(seed))
		if err != nil {
			log.Fatal(err)
		}
		if shard == "" {
			shard = nodes[0].url + " (local)"
		}
		byShard[shard]++
	}
	fmt.Printf("\n%d graphs posted to replica 0, solved by home shard:\n", graphs)
	for i, n := range nodes {
		local := byShard[n.url+" (local)"] + byShard[n.url]
		fmt.Printf("  replica %d: %d\n", i, local)
	}
	cs := nodes[0].srv.ClusterStats()
	fmt.Printf("replica 0 forwarding: relayed=%d errors=%d\n", cs.ForwardsRelayed, cs.ForwardErrors)

	// Kill replica 2. Three consecutive failed probe rounds (the dead
	// threshold) take it alive -> suspect -> dead, and the ring rebuilds.
	fmt.Println("\nkilling replica 2...")
	nodes[2].ts.Close()
	dead := nodes[2].url
	nodes[2] = nil
	for round := 0; round < 3; round++ {
		probeRound(nodes)
	}
	st, _ := nodes[0].srv.Cluster().PeerState(dead)
	fmt.Printf("replica 0 now sees replica 2 as %q after %d rebalances\n",
		st, nodes[0].srv.Cluster().Rebalances())

	// The same 12 graphs again: the dead shard's keys have rehashed to
	// the survivors, so every request still gets an answer.
	failures := 0
	for seed := 0; seed < graphs; seed++ {
		if _, err := schedule(nodes[0].url, demoGraph(seed)); err != nil {
			failures++
		}
	}
	if failures > 0 {
		log.Fatalf("%d requests lost after the kill", failures)
	}
	fmt.Printf("all %d graphs answered by the surviving replicas — zero lost requests\n", graphs)
}
