// Package cluster turns a set of independent scheduling replicas into a
// fleet: it shards the graph-fingerprint space across replicas with a
// consistent-hash ring (every fingerprint has exactly one home shard),
// maintains health-checked membership over a static peer list (heartbeat
// probing with alive → suspect → dead transitions and deterministic
// rebalancing on membership change).
//
// The package is transport-free by design: a Node probes its peers
// through a hook the serving layer fills (a heartbeat GET of a path the
// serving layer mounts, sent over its peer link), and the serving layer
// owns request forwarding — cluster only answers
// "who owns this fingerprint, and are they healthy?" via Owner and
// ForwardTarget. Every decision is a pure function of the locally
// observed peer states, so two replicas with the same view agree on every
// owner without any coordination protocol.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config describes one replica's view of the fleet. Self and the peer
// list are static — membership health is discovered, membership identity
// is configuration.
type Config struct {
	// Self is this replica's advertise URL (scheme://host:port), the
	// identity peers know it by. Required.
	Self string
	// Peers lists every replica's advertise URL. Self is filtered out,
	// duplicates are dropped; the empty list is a single-node fleet.
	Peers []string
	// Probe sends one heartbeat GET of HeartbeatPath to the peer at the
	// advertise URL and returns the answer's status and body; the Node
	// checks both. It runs under a context bounded by the probe timeout.
	// Nil, every probe fails: such a Node only computes owners over its
	// configured view.
	Probe func(ctx context.Context, peer string) (status int, body []byte, err error)
	// Logf, when set, receives membership-transition log lines.
	Logf func(format string, args ...any)
}

// The fleet's fixed geometry and pacing. The ring points and the peer
// endpoint must be the same on every replica for owners to agree, so they
// were never per-replica settings; the cadence and the probe thresholds
// have one value in use.
const (
	// virtualNodes is the number of ring points per member.
	virtualNodes = 64
	// probeInterval paces Run's probe loop; probeTimeout bounds one probe.
	probeInterval = 500 * time.Millisecond
	probeTimeout  = 2 * time.Second
	// suspectAfter consecutive probe failures make a peer suspect — still
	// an owner, but not forwarded to; deadAfter make it dead, and it
	// leaves the ring.
	suspectAfter = 1
	deadAfter    = 3
	// HeartbeatPath is the peer endpoint a Node probes; the serving layer
	// mounts its handler on it.
	HeartbeatPath = "/v1/cluster/heartbeat"
)

// peer is the mutable per-peer health state, guarded by Node.mu.
type peer struct {
	url      string
	state    State
	fails    int    // consecutive probe failures
	probes   uint64 // total probes issued
	failures uint64 // total probes failed
}

// Node is one replica's membership and sharding engine. Create with New;
// either call Run for the background probe loop or drive ProbeOnce
// explicitly (the chaos harness does). All methods are safe for
// concurrent use.
type Node struct {
	cfg   Config
	start time.Time

	mu    sync.Mutex
	peers []*peer // sorted by URL; never contains Self
	ring  *ring   // over Self + non-dead peers

	rebalances atomic.Uint64
}

// New validates cfg and returns a ready Node with every configured peer
// presumed alive (the optimistic start means a booting fleet shards
// immediately; the first probe round corrects the view).
func New(cfg Config) (*Node, error) {
	cfg.Self = normalizeURL(cfg.Self)
	if cfg.Self == "" {
		return nil, errors.New("cluster: Config.Self (advertise URL) is required")
	}
	if err := checkURL(cfg.Self); err != nil {
		return nil, fmt.Errorf("cluster: self %q: %w", cfg.Self, err)
	}
	seen := map[string]bool{cfg.Self: true}
	var peers []*peer
	for _, p := range cfg.Peers {
		p = normalizeURL(p)
		if p == "" || seen[p] {
			continue
		}
		if err := checkURL(p); err != nil {
			return nil, fmt.Errorf("cluster: peer %q: %w", p, err)
		}
		seen[p] = true
		peers = append(peers, &peer{url: p, state: StateAlive})
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].url < peers[j].url })

	n := &Node{
		cfg:   cfg,
		start: time.Now(),
		peers: peers,
	}
	n.rebuildRingLocked()
	return n, nil
}

// normalizeURL gives an advertise URL the one form a Node keeps: no
// trailing slash. Self and the peers pass through it alike, so a replica
// recognises itself in the peer list, and the From it answers heartbeats
// with is the URL its peers dialed.
func normalizeURL(s string) string { return strings.TrimRight(s, "/") }

// checkURL rejects advertise URLs a peer could not actually dial.
func checkURL(s string) error {
	u, err := url.Parse(s)
	if err != nil {
		return err
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("scheme %q: want http or https", u.Scheme)
	}
	if u.Host == "" {
		return errors.New("missing host")
	}
	return nil
}

// Self returns this replica's advertise URL.
func (n *Node) Self() string { return n.cfg.Self }

// rebuildRingLocked rebuilds the ring over Self plus every non-dead peer.
// Called with n.mu held. Membership is the only input, so two replicas
// that agree on who is dead agree on every owner.
func (n *Node) rebuildRingLocked() {
	members := make([]string, 0, len(n.peers)+1)
	members = append(members, n.cfg.Self)
	for _, p := range n.peers {
		if p.state != StateDead {
			members = append(members, p.url)
		}
	}
	n.ring = newRing(members)
}

// Owner returns the advertise URL of the fingerprint's home shard under
// the current membership view, and whether that shard is this replica.
func (n *Node) Owner(fp uint64) (string, bool) {
	n.mu.Lock()
	owner := n.ring.owner(fp)
	n.mu.Unlock()
	return owner, owner == n.cfg.Self
}

// ForwardTarget reports where a request for fp should be proxied: the
// owner's URL when the owner is a healthy (alive) remote peer. ok=false
// is the local-solve fallback path: the target is "" when this replica
// owns fp, and the owner's URL when the owner is suspect. One call is one
// ring walk under one lock, so a caller that branches on both results
// sees one membership view.
func (n *Node) ForwardTarget(fp uint64) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	owner := n.ring.owner(fp)
	if owner == n.cfg.Self {
		return "", false
	}
	for _, p := range n.peers {
		if p.url == owner {
			return owner, p.state == StateAlive
		}
	}
	return "", false
}

// Run drives the background probe loop until ctx is cancelled. The chaos
// harness skips Run and calls ProbeOnce directly for deterministic
// scheduling.
func (n *Node) Run(ctx context.Context) {
	probe := time.NewTicker(probeInterval)
	defer probe.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-probe.C:
			n.ProbeOnce(ctx)
		}
	}
}

// MemberInfo is one member's state in a Stats snapshot.
type MemberInfo struct {
	// URL is the member's advertise URL.
	URL string `json:"url"`
	// Self marks the reporting replica's own row.
	Self bool `json:"self,omitempty"`
	// State is the observed membership state ("alive", "suspect", "dead").
	State string `json:"state"`
	// ConsecutiveFails is the current unbroken probe-failure run.
	ConsecutiveFails int `json:"consecutive_fails,omitempty"`
	// Probes and Failures are lifetime probe counters for the member.
	Probes   uint64 `json:"probes,omitempty"`
	Failures uint64 `json:"failures,omitempty"`
}

// Stats is a point-in-time snapshot of the node's membership; it backs
// the cluster block of GET /v1/stats and the metric families.
type Stats struct {
	// Self is this replica's advertise URL.
	Self string `json:"self"`
	// Members lists every configured member (self first, peers by URL).
	Members []MemberInfo `json:"members"`
	// Rebalances counts ring rebuilds caused by membership transitions.
	Rebalances uint64 `json:"rebalances"`
}

// Stats snapshots membership.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	members := make([]MemberInfo, 0, len(n.peers)+1)
	members = append(members, MemberInfo{URL: n.cfg.Self, Self: true, State: StateAlive.String()})
	for _, p := range n.peers {
		members = append(members, MemberInfo{
			URL:              p.url,
			State:            p.state.String(),
			ConsecutiveFails: p.fails,
			Probes:           p.probes,
			Failures:         p.failures,
		})
	}
	n.mu.Unlock()
	return Stats{
		Self:       n.cfg.Self,
		Members:    members,
		Rebalances: n.rebalances.Load(),
	}
}

// Rebalances returns the ring-rebuild counter (lock-free; metrics read it
// at scrape time).
func (n *Node) Rebalances() uint64 { return n.rebalances.Load() }

// Peers returns the configured peer URLs (self excluded), sorted.
func (n *Node) Peers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, len(n.peers))
	for i, p := range n.peers {
		out[i] = p.url
	}
	return out
}

// PeerState returns the observed state of one configured peer.
func (n *Node) PeerState(url string) (State, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, p := range n.peers {
		if p.url == url {
			return p.state, true
		}
	}
	return StateDead, false
}

// logf forwards to the configured logger, if any.
func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}
