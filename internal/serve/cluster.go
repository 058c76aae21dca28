package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"respect/internal/cluster"
	"respect/internal/graph"
	"respect/internal/solver"
)

// ClusterConfig turns one server into a fleet replica: the graph
// fingerprint space is consistent-hash sharded across the peer set, each
// request is proxied to its home shard (with a local-solve fallback when
// the owner is unhealthy). Clustering is enabled when Peers is non-empty.
type ClusterConfig struct {
	// Advertise is this replica's URL as its peers can reach it
	// (scheme://host:port). Required when Peers is set.
	Advertise string
	// Peers lists every replica's advertise URL; the list may include
	// Advertise (it is filtered out). Non-empty enables clustering.
	Peers []string
	// Dial opens every connection to a peer, heartbeat probes and
	// forwards alike; tests inject partition-aware dialers here. Unset, a
	// plain net.Dialer. Peer traffic never goes through a proxy.
	Dial func(ctx context.Context, network, addr string) (net.Conn, error)
}

// Forwarding headers. A proxied request carries ForwardedFromHeader so
// the owner never re-forwards (loop prevention even while membership
// views disagree); a relayed response carries ForwardedToHeader naming
// the shard that actually solved.
const (
	// ForwardedFromHeader marks a peer-forwarded request with the
	// sender's advertise URL.
	ForwardedFromHeader = "X-Respect-Forwarded-From"
	// ForwardedToHeader marks a relayed response with the owner that
	// served it.
	ForwardedToHeader = "X-Respect-Forwarded-To"
)

// probeTimeout bounds one heartbeat probe.
const probeTimeout = 2 * time.Second

// outcomeForwarded is the request-duration outcome label for requests
// relayed to their home shard; "ok" keeps meaning locally solved.
const outcomeForwarded = "forwarded"

// clusterState is the server's fleet runtime: the membership node plus
// the forwarding counters backing both /v1/stats and /metrics.
type clusterState struct {
	node *cluster.Node
	link *peerLink

	relayed        atomic.Uint64 // requests proxied to their home shard
	forwardErrors  atomic.Uint64 // proxy attempts that fell back to a local solve
	localUnhealthy atomic.Uint64 // owner suspect/dead at entry: solved locally
}

// initCluster builds the membership node and registers the cluster metric
// families. Called by New after the class table is built (the peer link
// is sized by the class limits); a no-op when Peers is empty.
func (s *Server) initCluster() error {
	cc := s.cfg.Cluster
	if len(cc.Peers) == 0 {
		if cc.Advertise != "" {
			return errors.New("serve: Cluster.Advertise set without Cluster.Peers")
		}
		return nil
	}
	if cc.Advertise == "" {
		return errors.New("serve: Cluster.Peers set without Cluster.Advertise")
	}
	// Heartbeats dial afresh each probe, so no probe connection outlives
	// the probe.
	node, err := cluster.New(cluster.Config{
		Self:  cc.Advertise,
		Peers: cc.Peers,
		Client: &http.Client{
			Timeout:   probeTimeout,
			Transport: &http.Transport{DialContext: cc.Dial, DisableKeepAlives: true},
		},
		Logf: s.cfg.Logf,
	})
	if err != nil {
		return err
	}
	// Forwarding happens before admission, so the number of forwards in
	// flight to one peer is not bounded here; what the peer admits at
	// once is, by the sum of its class limits. Keeping that many
	// connections idle per peer means a burst re-dials nothing.
	slots := 0
	for _, st := range s.classes {
		slots += st.policy.MaxConcurrent
	}
	s.cluster = &clusterState{node: node, link: newPeerLink(node.Self(), cc.Dial, slots)}

	forwards := s.reg.CounterVec("respect_cluster_forwards_total",
		"Cross-shard request routing by result: relayed (proxied to the home shard), error_fallback (proxy failed, solved locally), local_unhealthy (owner suspect or dead, solved locally).",
		"result")
	forwards.Func(func() float64 { return float64(s.cluster.relayed.Load()) }, "relayed")
	forwards.Func(func() float64 { return float64(s.cluster.forwardErrors.Load()) }, "error_fallback")
	forwards.Func(func() float64 { return float64(s.cluster.localUnhealthy.Load()) }, "local_unhealthy")
	peerState := s.reg.GaugeVec("respect_cluster_peer_state",
		"Observed peer membership state: 0 alive, 1 suspect, 2 dead.", "peer")
	for _, url := range node.Peers() {
		url := url
		peerState.Func(func() float64 {
			st, _ := node.PeerState(url)
			return float64(st)
		}, url)
	}
	s.reg.CounterFunc("respect_cluster_rebalances_total",
		"Consistent-hash ring rebuilds caused by membership transitions.",
		func() float64 { return float64(node.Rebalances()) })
	return nil
}

// Cluster returns the fleet membership node, or nil when clustering is
// disabled. The chaos harness drives ProbeOnce through it.
func (s *Server) Cluster() *cluster.Node {
	if s.cluster == nil {
		return nil
	}
	return s.cluster.node
}

// SpeculateOnce runs one synchronous speculation pass on every class
// speculator and returns the total entries warmed. It is the
// deterministic counterpart of the background loops, used by tests and
// operators to force a pass.
func (s *Server) SpeculateOnce(ctx context.Context) int {
	total := 0
	for _, sp := range s.speculators {
		total += sp.RunOnce(ctx)
	}
	return total
}

// ClusterStats is the fleet block of /v1/stats and GET /v1/cluster:
// membership from the node plus the serving layer's
// forwarding counters.
type ClusterStats struct {
	cluster.Stats
	// ForwardsRelayed counts requests proxied to their home shard.
	ForwardsRelayed uint64 `json:"forwards_relayed"`
	// ForwardErrors counts proxy attempts that fell back to local solves.
	ForwardErrors uint64 `json:"forward_errors"`
	// ForwardsLocalUnhealthy counts requests solved locally because the
	// owner was suspect or dead at entry.
	ForwardsLocalUnhealthy uint64 `json:"forwards_local_unhealthy"`
}

// ClusterStats snapshots the fleet block, or nil when clustering is off.
func (s *Server) ClusterStats() *ClusterStats {
	if s.cluster == nil {
		return nil
	}
	return &ClusterStats{
		Stats:                  s.cluster.node.Stats(),
		ForwardsRelayed:        s.cluster.relayed.Load(),
		ForwardErrors:          s.cluster.forwardErrors.Load(),
		ForwardsLocalUnhealthy: s.cluster.localUnhealthy.Load(),
	}
}

// handleClusterStats serves GET /v1/cluster.
func (s *Server) handleClusterStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	writeJSON(w, http.StatusOK, s.ClusterStats())
}

// handleClusterHeartbeat serves GET /v1/cluster/heartbeat, the liveness
// probe peers poll; the response names this replica's advertise URL so a
// misconfigured peer list reads as unhealthy instead of joining the ring.
func (s *Server) handleClusterHeartbeat(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	writeJSON(w, http.StatusOK, s.cluster.node.Heartbeat())
}

// isForwarded reports whether r already hopped once; such requests are
// always solved locally, bounding any routing disagreement to one hop.
func isForwarded(r *http.Request) bool {
	return r.Header.Get(ForwardedFromHeader) != ""
}

// relaySchedule proxies a schedule request to its home shard, sending on
// the body bytes exactly as they arrived, and relays the response
// verbatim (status, Retry-After, body) annotated with ForwardedToHeader.
// It returns false — and counts a forward error — when the proxy attempt
// itself failed (connection error, a 5xx from the owner, or an answer that
// failed to read or exceeds MaxBodyBytes), in which case the caller solves
// locally: an answer is relayed whole or not at all. Owner-issued 4xx/429
// are real answers and are relayed, not retried. The link is done with
// body when relaySchedule returns.
func (s *Server) relaySchedule(w http.ResponseWriter, r *http.Request, target string, body []byte, class Class, budget time.Duration, arrival time.Time) bool {
	// The owner itself spends up to one budget queueing plus one solving,
	// so the proxy deadline is twice the class budget.
	ctx, cancel := context.WithTimeout(r.Context(), 2*budget)
	defer cancel()
	// One byte past the bound tells an answer that exceeds it from one
	// that fills it exactly.
	status, retryAfter, data, err := s.cluster.link.post(ctx, target, "/v1/schedule", body, s.cfg.MaxBodyBytes+1)
	if err != nil {
		s.cluster.forwardErrors.Add(1)
		return false
	}
	defer releaseBody(data)
	if status >= http.StatusInternalServerError || int64(data.Len()) > s.cfg.MaxBodyBytes {
		s.cluster.forwardErrors.Add(1)
		return false
	}
	s.cluster.relayed.Add(1)
	s.observeRequest(class, outcomeForwarded, arrival)
	if retryAfter != "" {
		w.Header().Set("Retry-After", retryAfter)
	}
	w.Header().Set(ForwardedToHeader, target)
	writeSized(w, status, data.Bytes())
	return true
}

// batchForwardGroups buckets a resolved batch by healthy remote owner;
// indices of self-owned graphs (or graphs whose owner is unhealthy) are
// not bucketed and solve locally.
func (s *Server) batchForwardGroups(graphs []*graph.Graph) map[string][]int {
	groups := make(map[string][]int)
	for i, g := range graphs {
		if target, ok := s.cluster.node.ForwardTarget(g.Fingerprint()); ok {
			groups[target] = append(groups[target], i)
		} else if target != "" {
			s.cluster.localUnhealthy.Add(1)
		}
	}
	return groups
}

// forwardBatchGroup proxies one owner's sub-batch and returns its items
// in the order of idx. Any failure (connection, non-200, oversize, short
// or malformed response) is an error; the caller solves the group locally.
func (s *Server) forwardBatchGroup(ctx context.Context, target string, graphs []*graph.Graph, idx []int, numStages int, class Class, backend string, jobs int) ([]BatchItemJSON, error) {
	sub := BatchRequest{
		Graphs:  make([]json.RawMessage, len(idx)),
		Stages:  numStages,
		Class:   string(class),
		Backend: backend,
		Jobs:    jobs,
	}
	for k, i := range idx {
		var buf bytes.Buffer
		if err := graphs[i].WriteJSON(&buf); err != nil {
			return nil, err
		}
		sub.Graphs[k] = json.RawMessage(buf.Bytes())
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return nil, err
	}
	status, _, data, err := s.cluster.link.post(ctx, target, "/v1/batch", body, s.cfg.MaxBodyBytes+1)
	if err != nil {
		return nil, err
	}
	defer releaseBody(data)
	if status != http.StatusOK {
		return nil, fmt.Errorf("owner %s: status %d", target, status)
	}
	if int64(data.Len()) > s.cfg.MaxBodyBytes {
		return nil, fmt.Errorf("owner %s: answer exceeds %d bytes", target, s.cfg.MaxBodyBytes)
	}
	var br BatchResponse
	if err := json.Unmarshal(data.Bytes(), &br); err != nil {
		return nil, err
	}
	if len(br.Items) != len(idx) {
		return nil, fmt.Errorf("owner %s: %d items for %d graphs", target, len(br.Items), len(idx))
	}
	return br.Items, nil
}

// runClusteredBatch executes a batch whose graphs span shards: remote
// groups are proxied to their owners while the local remainder solves
// here, and any group whose proxy failed is re-solved locally (the
// fallback guarantee: an admitted batch never loses items to peer
// failures). Items return in input order.
func (s *Server) runClusteredBatch(ctx context.Context, engine *solver.Engine, graphs []*graph.Graph, numStages int, class Class, backend string, jobs int, groups map[string][]int) []BatchItemJSON {
	items := make([]BatchItemJSON, len(graphs))
	remote := make(map[int]bool)
	for _, idx := range groups {
		for _, i := range idx {
			remote[i] = true
		}
	}

	var (
		mu       sync.Mutex
		fallback []int
		wg       sync.WaitGroup
	)
	for target, idx := range groups {
		wg.Add(1)
		go func(target string, idx []int) {
			defer wg.Done()
			sub, err := s.forwardBatchGroup(ctx, target, graphs, idx, numStages, class, backend, jobs)
			if err != nil {
				s.cluster.forwardErrors.Add(1)
				s.logf("cluster: batch group -> %s failed, solving %d items locally: %v", target, len(idx), err)
				mu.Lock()
				fallback = append(fallback, idx...)
				mu.Unlock()
				return
			}
			s.cluster.relayed.Add(1)
			mu.Lock()
			for k, i := range idx {
				items[i] = sub[k]
				items[i].Index = i
				items[i].ForwardedTo = target
			}
			mu.Unlock()
		}(target, idx)
	}

	var local []int
	for i := range graphs {
		if !remote[i] {
			local = append(local, i)
		}
	}
	s.solveBatchLocal(ctx, engine, graphs, local, numStages, jobs, items)
	wg.Wait()
	if len(fallback) > 0 {
		sort.Ints(fallback)
		s.solveBatchLocal(ctx, engine, graphs, fallback, numStages, jobs, items)
	}
	return items
}

// solveBatchLocal solves the given graph indices through the local batch
// engine and writes their items (in input positions) into items.
func (s *Server) solveBatchLocal(ctx context.Context, engine *solver.Engine, graphs []*graph.Graph, idx []int, numStages, jobs int, items []BatchItemJSON) {
	if len(idx) == 0 {
		return
	}
	subset := make([]*graph.Graph, len(idx))
	for k, i := range idx {
		subset[k] = graphs[i]
	}
	results, _ := solver.Batch(ctx, engine, subset, numStages, jobs)
	for k, res := range results {
		items[idx[k]] = batchItemJSON(idx[k], res)
	}
}
