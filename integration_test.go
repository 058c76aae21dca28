package respect

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"respect/internal/cluster"
	"respect/internal/deploy"
	"respect/internal/graph"
	"respect/internal/models"
	"respect/internal/serve"
	"respect/internal/tpu"
)

// TestFullDeploymentFlow exercises the complete paper pipeline end to end:
// train → schedule a real model → partition into per-stage sub-models →
// serialize to disk → reload → verify integrity → simulate the pipeline.
func TestFullDeploymentFlow(t *testing.T) {
	agent, err := Train(TrainConfig{Hidden: 16, NumNodes: 12, Degrees: []int{2},
		Stages: 4, Iterations: 10, BatchSize: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	g := models.MustLoad("Xception")
	const stages = 4
	s, err := agent.Schedule(g, stages)
	if err != nil {
		t.Fatal(err)
	}

	// Partition and serialize one image per stage.
	subs, err := deploy.Partition(g, s)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var paths []string
	for k := range subs {
		p := filepath.Join(dir, fmt.Sprintf("stage%d.rspt", k))
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := subs[k].Write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}

	// Reload every image and cross-check against the schedule.
	var totalParams int64
	for k, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := deploy.Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("stage %d: %v", k, err)
		}
		if sm.Stage != k || sm.NumStages != stages || sm.ModelName != g.Name {
			t.Fatalf("stage %d header wrong: %+v", k, sm)
		}
		for _, op := range sm.Ops {
			if s.Stage[op.Node] != k {
				t.Fatalf("op %d serialized into wrong stage", op.Node)
			}
		}
		totalParams += sm.ParamBytes()
	}
	if totalParams != g.TotalParamBytes() {
		t.Fatalf("params lost in serialization: %d vs %d", totalParams, g.TotalParamBytes())
	}

	// The deployed schedule must run on the simulator.
	rep, err := tpu.Simulate(g, s, tpu.Coral())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput() <= 0 || rep.EnergyPerInference <= 0 {
		t.Fatalf("implausible simulation: %+v", rep)
	}
}

// TestSchedulerQualityOrdering checks the dominance the service reports
// on a real model, deployed cost against deployed cost: the exact schedule
// is deployable as it stands, and neither the DP heuristic nor the greedy
// compiler partition deploys below its proven optimum.
func TestSchedulerQualityOrdering(t *testing.T) {
	g := models.MustLoad("ResNet101")
	for _, ns := range []int{4, 5, 6} {
		ex, opt, proven := ScheduleExact(g, ns, 0)
		if !proven {
			t.Fatalf("exact truncated at %d stages", ns)
		}
		if err := ex.Validate(g); err != nil || !ex.SameStageChildrenOK(g) {
			t.Fatalf("%d stages: the exact schedule is not deployable (Validate: %v)", ns, err)
		}
		if got := PostProcess(g, ex).Evaluate(g); got != opt {
			t.Fatalf("%d stages: the deployment repair moved the optimum %v to %v", ns, opt, got)
		}
		for _, backend := range []string{"heur", "compiler"} {
			s, err := ScheduleWith(context.Background(), backend, g, ns)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Evaluate(g); got.PeakParamBytes < opt.PeakParamBytes {
				t.Fatalf("%d stages: %s deploys at %v, below the proven optimum %v", ns, backend, got, opt)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Fleet-scale sharded serving: chaos/partition end-to-end suite.
//
// The tests below boot 3-5 in-process replicas over httptest with a static
// peer list and drive membership probes and speculation passes explicitly
// (no background loops), so every assertion is deterministic under -race.
// A kill is the replica's HTTP server closing (peers see connection
// refusals); a partition is a cut link in a shared reachability matrix
// behind each replica's dialer.
// ---------------------------------------------------------------------------

// fleetPartition is the shared reachability matrix between fleet replicas.
type fleetPartition struct {
	mu      sync.Mutex
	blocked map[[2]string]bool
}

func newFleetPartition() *fleetPartition {
	return &fleetPartition{blocked: make(map[[2]string]bool)}
}

func (p *fleetPartition) set(from, to string, blocked bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.blocked[[2]string{from, to}] = blocked
}

// isolate cuts (or heals) both directions between url and every other
// fleet member.
func (p *fleetPartition) isolate(url string, members []string, blocked bool) {
	for _, m := range members {
		if m == url {
			continue
		}
		p.set(url, m, blocked)
		p.set(m, url, blocked)
	}
}

func (p *fleetPartition) isBlocked(from, to string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.blocked[[2]string{from, to}]
}

// partitionDialer is one replica's outbound dialer: a dial across a cut
// link fails, and a connection checks the link on every Read and Write,
// so a pooled connection also obeys a partition that starts after it
// was opened, like a real one.
type partitionDialer struct {
	from string
	part *fleetPartition
}

func (d *partitionDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	to := "http://" + addr
	if d.part.isBlocked(d.from, to) {
		return nil, fmt.Errorf("partition: %s cannot reach %s", d.from, to)
	}
	c, err := new(net.Dialer).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return &partitionConn{Conn: c, d: d, to: to}, nil
}

// partitionConn is a connection that fails its I/O while its link is cut.
type partitionConn struct {
	net.Conn
	d  *partitionDialer
	to string
}

func (c *partitionConn) cut() error {
	if c.d.part.isBlocked(c.d.from, c.to) {
		return fmt.Errorf("partition: %s cannot reach %s", c.d.from, c.to)
	}
	return nil
}

func (c *partitionConn) Read(p []byte) (int, error) {
	if err := c.cut(); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c *partitionConn) Write(p []byte) (int, error) {
	if err := c.cut(); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

// fleetNode is one in-process replica: a serve.Server on a real listener.
type fleetNode struct {
	url string
	srv *serve.Server
	ts  *httptest.Server
}

// kill stops the replica's HTTP server; peers see connection refusals.
func (n *fleetNode) kill() { n.ts.Close() }

// newFleet boots n replicas that know each other via a static peer list.
func newFleet(t *testing.T, n int, mutate func(i int, cfg *serve.Config)) ([]*fleetNode, *fleetPartition) {
	t.Helper()
	// Listeners are bound before any server is constructed so every
	// replica's config can carry the full peer URL list.
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	part := newFleetPartition()
	nodes := make([]*fleetNode, n)
	for i := range lns {
		cfg := serve.Config{
			WarmModels: []string{},
			Cluster: serve.ClusterConfig{
				Advertise: urls[i],
				Peers:     append([]string(nil), urls...),
				Dial:      (&partitionDialer{from: urls[i], part: part}).DialContext,
			},
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		srv, err := serve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := &httptest.Server{Listener: lns[i], Config: &http.Server{Handler: srv}}
		ts.Start()
		t.Cleanup(ts.Close) // idempotent; killed nodes are already closed
		nodes[i] = &fleetNode{url: urls[i], srv: srv, ts: ts}
	}
	return nodes, part
}

// fleetGraph builds a small chain graph whose parameters vary with seed,
// so every seed yields a distinct fingerprint, plus its wire form.
func fleetGraph(t *testing.T, seed int) (*graph.Graph, []byte) {
	t.Helper()
	g := graph.New(fmt.Sprintf("fleet-%d", seed))
	for i := 0; i < 6; i++ {
		g.AddNode(graph.Node{
			Name:       fmt.Sprintf("n%d", i),
			ParamBytes: int64(1000 + 37*seed + i),
			OutBytes:   int64(8 + i),
		})
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
	return g, buf.Bytes()
}

// fleetSchedule POSTs one inline-graph schedule request to a replica.
func fleetSchedule(t *testing.T, base string, raw []byte) (*http.Response, serve.ScheduleResponse) {
	t.Helper()
	body, err := json.Marshal(serve.ScheduleRequest{Graph: raw, Stages: 4})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out serve.ScheduleResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("decode %s: %v", data, err)
		}
	}
	return resp, out
}

// TestFleetShardingAndForwarding checks the steady-state fleet contract on
// three replicas: every replica agrees on each fingerprint's home shard,
// requests entering through a non-owner are relayed to the owner (and say
// so), and the shard concentration pays off — a repeat request through a
// different non-owner hits the owner's cache.
func TestFleetShardingAndForwarding(t *testing.T) {
	nodes, _ := newFleet(t, 3, nil)

	const trace = 12
	for seed := 0; seed < trace; seed++ {
		g, raw := fleetGraph(t, seed)
		fp := g.Fingerprint()
		owner, _ := nodes[0].srv.Cluster().Owner(fp)
		for _, n := range nodes[1:] {
			if o, _ := n.srv.Cluster().Owner(fp); o != owner {
				t.Fatalf("owner disagreement for %016x: %q vs %q", fp, owner, o)
			}
		}
		var sender *fleetNode
		for _, n := range nodes {
			if n.url != owner {
				sender = n
				break
			}
		}
		resp, out := fleetSchedule(t, sender.url, raw)
		if resp.StatusCode != http.StatusOK || len(out.Stage) == 0 {
			t.Fatalf("seed %d: status %d with %d-stage schedule", seed, resp.StatusCode, len(out.Stage))
		}
		if got := resp.Header.Get(serve.ForwardedToHeader); got != owner {
			t.Fatalf("seed %d: forwarded to %q, want owner %q", seed, got, owner)
		}
	}
	var relayed uint64
	for _, n := range nodes {
		relayed += n.srv.ClusterStats().ForwardsRelayed
	}
	if relayed != trace {
		t.Fatalf("relay counters: %d, want %d (one per request)", relayed, trace)
	}

	// Re-request seed 0 through every non-owner: the owner solved it once,
	// so both relays must come back as cache hits.
	g, raw := fleetGraph(t, 0)
	owner, _ := nodes[0].srv.Cluster().Owner(g.Fingerprint())
	for _, n := range nodes {
		if n.url == owner {
			continue
		}
		resp, out := fleetSchedule(t, n.url, raw)
		if resp.StatusCode != http.StatusOK || !out.CacheHit {
			t.Fatalf("repeat via %s: status %d cache_hit=%v, want a relayed owner-cache hit",
				n.url, resp.StatusCode, out.CacheHit)
		}
	}
}

// TestFleetChaosKillZeroLoss kills a replica mid-replay on a four-node
// fleet and asserts the three chaos invariants: (a) zero lost admitted
// requests — every request returns a valid schedule throughout, forwards
// to the dead owner falling back to local solves; (b) membership
// converges — after the probe threshold the victim is dead on every
// survivor and owns nothing; (c) stale owners stop being consulted — the
// post-convergence replay adds no forward errors.
func TestFleetChaosKillZeroLoss(t *testing.T) {
	nodes, _ := newFleet(t, 4, nil)
	ctx := context.Background()

	type traceReq struct {
		g   *graph.Graph
		raw []byte
	}
	var reqs []traceReq
	for seed := 0; seed < 36; seed++ {
		g, raw := fleetGraph(t, seed)
		reqs = append(reqs, traceReq{g, raw})
	}
	victim, survivors := nodes[3], nodes[:3]

	// Phase 1: healthy replay across the whole fleet.
	for k, rq := range reqs[:12] {
		resp, out := fleetSchedule(t, nodes[k%len(nodes)].url, rq.raw)
		if resp.StatusCode != http.StatusOK || len(out.Stage) == 0 {
			t.Fatalf("pre-kill request %d lost: status %d", k, resp.StatusCode)
		}
	}

	// Phase 2: kill mid-replay; survivors must lose nothing.
	victim.kill()
	for k, rq := range reqs[12:24] {
		resp, out := fleetSchedule(t, survivors[k%len(survivors)].url, rq.raw)
		if resp.StatusCode != http.StatusOK || len(out.Stage) == 0 {
			t.Fatalf("post-kill request %d lost: status %d", k, resp.StatusCode)
		}
	}

	// Phase 3: convergence. Three failed probe rounds (the dead
	// threshold) take the victim out of every survivor's ring.
	for round := 0; round < 3; round++ {
		for _, n := range survivors {
			n.srv.Cluster().ProbeOnce(ctx)
		}
	}
	for _, n := range survivors {
		if st, ok := n.srv.Cluster().PeerState(victim.url); !ok || st != cluster.StateDead {
			t.Fatalf("%s sees victim as %v, want dead", n.url, st)
		}
		if n.srv.Cluster().Rebalances() == 0 {
			t.Fatalf("%s never rebalanced after the kill", n.url)
		}
		for _, rq := range reqs {
			if owner, _ := n.srv.Cluster().Owner(rq.g.Fingerprint()); owner == victim.url {
				t.Fatalf("converged ring on %s still routes %s to the dead replica", n.url, rq.g.Name)
			}
		}
	}

	// Phase 4: the dead owner is never consulted again.
	before := make([]uint64, len(survivors))
	for i, n := range survivors {
		before[i] = n.srv.ClusterStats().ForwardErrors
	}
	for k, rq := range reqs[24:] {
		resp, out := fleetSchedule(t, survivors[k%len(survivors)].url, rq.raw)
		if resp.StatusCode != http.StatusOK || len(out.Stage) == 0 {
			t.Fatalf("post-convergence request %d lost: status %d", k, resp.StatusCode)
		}
	}
	for i, n := range survivors {
		if got := n.srv.ClusterStats().ForwardErrors; got != before[i] {
			t.Fatalf("%s consulted the dead owner after convergence: forward errors %d -> %d",
				n.url, before[i], got)
		}
	}
}

// TestFleetPartitionSuspectFallback partitions an owner away on a
// three-node fleet: the first forward fails over to a local solve, one
// failed probe demotes the owner to suspect (kept in the ring, no longer
// consulted), and healing the partition restores forwarding.
func TestFleetPartitionSuspectFallback(t *testing.T) {
	nodes, part := newFleet(t, 3, nil)
	ctx := context.Background()
	urls := []string{nodes[0].url, nodes[1].url, nodes[2].url}
	owner := nodes[2]

	var g *graph.Graph
	var raw []byte
	for seed := 0; g == nil; seed++ {
		cand, candRaw := fleetGraph(t, seed)
		if o, _ := nodes[0].srv.Cluster().Owner(cand.Fingerprint()); o == owner.url {
			g, raw = cand, candRaw
		}
	}
	sender := nodes[0]

	// Cut the owner off: the forward fails, the local fallback serves.
	part.isolate(owner.url, urls, true)
	resp, out := fleetSchedule(t, sender.url, raw)
	if resp.StatusCode != http.StatusOK || len(out.Stage) == 0 {
		t.Fatalf("partitioned request lost: status %d", resp.StatusCode)
	}
	if resp.Header.Get(serve.ForwardedToHeader) != "" {
		t.Fatal("partitioned owner cannot have answered")
	}
	if sender.srv.ClusterStats().ForwardErrors == 0 {
		t.Fatal("failed forward not recorded")
	}

	// One failed probe: suspect. Still the ring owner, no longer consulted.
	sender.srv.Cluster().ProbeOnce(ctx)
	if st, _ := sender.srv.Cluster().PeerState(owner.url); st != cluster.StateSuspect {
		t.Fatalf("owner state %v after one failed probe, want suspect", st)
	}
	if o, _ := sender.srv.Cluster().Owner(g.Fingerprint()); o != owner.url {
		t.Fatal("suspect member must keep ring ownership (no rebalance churn)")
	}
	errsBefore := sender.srv.ClusterStats().ForwardErrors
	resp, out = fleetSchedule(t, sender.url, raw)
	if resp.StatusCode != http.StatusOK || len(out.Stage) == 0 {
		t.Fatalf("suspect-owner request lost: status %d", resp.StatusCode)
	}
	cs := sender.srv.ClusterStats()
	if cs.ForwardErrors != errsBefore {
		t.Fatal("suspect owner was still consulted")
	}
	if cs.ForwardsLocalUnhealthy == 0 {
		t.Fatal("local-unhealthy fallback not recorded")
	}

	// Heal: one successful probe restores alive and forwarding resumes.
	part.isolate(owner.url, urls, false)
	sender.srv.Cluster().ProbeOnce(ctx)
	if st, _ := sender.srv.Cluster().PeerState(owner.url); st != cluster.StateAlive {
		t.Fatalf("owner state %v after heal, want alive", st)
	}
	resp, _ = fleetSchedule(t, sender.url, raw)
	if got := resp.Header.Get(serve.ForwardedToHeader); got != owner.url {
		t.Fatalf("forwarding did not resume after heal (forwarded-to %q)", got)
	}
}

// TestFleetRelayedDemandSpeedsWarmRecovery runs one kill scenario three
// times with the hot traffic entering through the two survivors, which
// relay every hot request to the victim that owns it. A replica counts
// what it relays as its own demand, and the speculator acts on a key only
// once that replica's own score reaches minScore (1.5). The owner counts
// a key's whole fleet traffic; a survivor counts only its share.
//
//   - 4 requests per key, 2 through each survivor, speculation on: both
//     survivors scored every key 2, so the first post-kill pass is all
//     hits.
//   - The same traffic with speculation off: all misses.
//   - 3 requests per key, 2 through survivor 0 and 1 through survivor 1,
//     speculation on: the boundary. A key hits only if it rehashes to
//     survivor 0; the keys that rehash to survivor 1 (score 1) miss.
//
// The hot set holds two keys that rehash to each survivor, picked on the
// survivors-only ring, so the boundary case has both outcomes every run.
func TestFleetRelayedDemandSpeedsWarmRecovery(t *testing.T) {
	// firstPass returns, per hot key, whether the first post-kill request
	// hit and how many of its requests the key's new owner had relayed.
	firstPass := func(speculation bool, perKey int) (hit []bool, relayed []int) {
		nodes, _ := newFleet(t, 3, func(i int, cfg *serve.Config) {
			cfg.Speculation = serve.SpeculationConfig{Enabled: speculation, Budget: 16, TopK: 16}
		})
		ctx := context.Background()
		victim, survivors := nodes[2], nodes[:2]
		// The ring the survivors converge to once the victim is dead.
		after, err := cluster.New(cluster.Config{Self: survivors[0].url, Peers: []string{survivors[1].url}})
		if err != nil {
			t.Fatal(err)
		}

		// The hot set: graphs whose home shard is the victim, two
		// rehashing to each survivor.
		type hot struct {
			g     *graph.Graph
			raw   []byte
			owner int // index into survivors after the kill
		}
		var hotset []hot
		per := make([]int, len(survivors))
		for seed := 100; len(hotset) < 4; seed++ {
			g, raw := fleetGraph(t, seed)
			if o, _ := nodes[0].srv.Cluster().Owner(g.Fingerprint()); o != victim.url {
				continue
			}
			o, self := after.Owner(g.Fingerprint())
			idx := 1
			if self {
				idx = 0
			}
			if o != survivors[idx].url {
				t.Fatalf("survivors-only ring names %q, not a survivor", o)
			}
			if per[idx] < 2 {
				per[idx]++
				hotset = append(hotset, hot{g, raw, idx})
			}
		}
		// Hot traffic enters through the survivors, alternating, as a
		// load balancer spreads it; every request is relayed to the victim.
		relayedBy := make([]int, len(survivors))
		for i := 0; i < perKey; i++ {
			relayedBy[i%len(survivors)]++
		}
		for _, h := range hotset {
			for i := 0; i < perKey; i++ {
				via := survivors[i%len(survivors)]
				resp, _ := fleetSchedule(t, via.url, h.raw)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("hot traffic failed: status %d", resp.StatusCode)
				}
				if got := resp.Header.Get(serve.ForwardedToHeader); got != victim.url {
					t.Fatalf("hot request via %s forwarded to %q, want the victim %q",
						via.url, got, victim.url)
				}
			}
		}
		// One speculation pass on the survivors.
		for _, n := range survivors {
			n.srv.SpeculateOnce(ctx)
		}

		// Kill the victim and converge membership on the survivors.
		victim.kill()
		for round := 0; round < 3; round++ {
			for _, n := range survivors {
				n.srv.Cluster().ProbeOnce(ctx)
			}
		}

		// First post-kill pass over the hot set via the new owners.
		for _, h := range hotset {
			target := survivors[h.owner]
			if owner, _ := target.srv.Cluster().Owner(h.g.Fingerprint()); owner != target.url {
				t.Fatalf("hot graph %s rehashed to %q, want %q", h.g.Name, owner, target.url)
			}
			resp, out := fleetSchedule(t, target.url, h.raw)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("post-kill hot request failed: status %d", resp.StatusCode)
			}
			hit = append(hit, out.CacheHit)
			relayed = append(relayed, relayedBy[h.owner])
		}
		return hit, relayed
	}

	for _, tc := range []struct {
		name        string
		speculation bool
		perKey      int
	}{
		{"4_per_key", true, 4},
		{"4_per_key_no_speculation", false, 4},
		{"3_per_key_boundary", true, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hit, relayed := firstPass(tc.speculation, tc.perKey)
			for k := range hit {
				// minScore is 1.5: two relayed requests warm a key, one
				// does not.
				want := tc.speculation && relayed[k] >= 2
				if hit[k] != want {
					t.Errorf("hot key %d: new owner relayed %d of %d requests, speculation %v: hit %v, want %v",
						k, relayed[k], tc.perKey, tc.speculation, hit[k], want)
				}
			}
		})
	}
}
