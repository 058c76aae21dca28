package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"respect/internal/cluster"
)

// ClusterConfig turns one server into a fleet replica: the graph
// fingerprint space is consistent-hash sharded across the peer set, and
// each /v1/schedule request is proxied to its home shard (with a
// local-solve fallback when the owner is unhealthy); a /v1/batch is
// solved where it arrives. Clustering is enabled when Peers is non-empty.
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
	// The node probes over the link, which is set before New returns and
	// so before any probe runs.
	var link *peerLink
	node, err := cluster.New(cluster.Config{
		Self:  cc.Advertise,
		Peers: cc.Peers,
		Probe: func(ctx context.Context, peer string) (int, []byte, error) {
			return link.get(ctx, peer, cluster.HeartbeatPath, s.cfg.MaxBodyBytes)
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
	link = newPeerLink(node.Self(), cc.Dial, slots)
	s.cluster = &clusterState{node: node, link: link}

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

// ClusterStats is the fleet block of /v1/stats: membership from the node
// plus the serving layer's forwarding counters.
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
	status, retryAfter, data, err := s.cluster.link.send(ctx, http.MethodPost, target, "/v1/schedule", body, s.cfg.MaxBodyBytes+1)
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
