package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"respect/internal/graph"
)

// maxWireBytes bounds any single heartbeat message read off the network;
// peers are trusted but a misconfigured peer list can point at arbitrary
// servers.
const maxWireBytes = 4 << 20

// maxHeartbeatPeers bounds the peer-state map accepted in a heartbeat.
const maxHeartbeatPeers = 1024

// HeartbeatMessage is the liveness payload served on the heartbeat
// endpoint. From is the responder's advertise URL — a prober checks it
// against the URL it dialed, so a peer list pointing at the wrong server
// (or a replica advertising the wrong identity) reads as unhealthy
// instead of silently joining the ring. FingerprintVersion is checked
// against the prober's graph.FingerprintVersion the same way: replicas
// that hash graphs differently would place one graph at two points of
// the ring and cache it under two keys, so they do not forward to each
// other.
type HeartbeatMessage struct {
	// From is the responder's advertise URL.
	From string `json:"from"`
	// FingerprintVersion is the responder's graph.FingerprintVersion.
	FingerprintVersion int `json:"fingerprint_version"`
	// UptimeSeconds is how long the responder has been up.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Peers maps each of the responder's configured peers to the state it
	// observes ("alive", "suspect", "dead") — operator-facing context.
	Peers map[string]string `json:"peers,omitempty"`
}

// Heartbeat builds this node's heartbeat response.
func (n *Node) Heartbeat() HeartbeatMessage {
	hb := HeartbeatMessage{
		From:               n.cfg.Self,
		FingerprintVersion: graph.FingerprintVersion,
		UptimeSeconds:      time.Since(n.start).Seconds(),
		Peers:              make(map[string]string),
	}
	n.mu.Lock()
	for _, p := range n.peers {
		hb.Peers[p.url] = p.state.String()
	}
	n.mu.Unlock()
	return hb
}

// DecodeHeartbeat parses and validates a heartbeat message. It rejects
// malformed JSON, a missing or undialable From, and oversized peer maps;
// unknown peer-state strings are tolerated (version skew).
func DecodeHeartbeat(r io.Reader) (*HeartbeatMessage, error) {
	var hb HeartbeatMessage
	dec := json.NewDecoder(io.LimitReader(r, maxWireBytes))
	if err := dec.Decode(&hb); err != nil {
		return nil, fmt.Errorf("cluster: heartbeat decode: %w", err)
	}
	if hb.From == "" {
		return nil, errors.New("cluster: heartbeat missing from")
	}
	if err := checkURL(hb.From); err != nil {
		return nil, fmt.Errorf("cluster: heartbeat from %q: %w", hb.From, err)
	}
	if len(hb.Peers) > maxHeartbeatPeers {
		return nil, fmt.Errorf("cluster: heartbeat lists %d peers (max %d)", len(hb.Peers), maxHeartbeatPeers)
	}
	return &hb, nil
}

// ProbeOnce runs one heartbeat round: every peer is probed concurrently,
// then states advance — success resets a peer to alive, a failure run of
// suspectAfter marks it suspect, deadAfter marks it dead. The ring is
// rebuilt only when a peer crosses the dead boundary in either direction,
// and each rebuild counts one rebalance.
func (n *Node) ProbeOnce(ctx context.Context) {
	n.mu.Lock()
	urls := make([]string, len(n.peers))
	for i, p := range n.peers {
		urls[i] = p.url
	}
	n.mu.Unlock()

	ok := make([]bool, len(urls))
	var wg sync.WaitGroup
	for i := range urls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ok[i] = n.probe(ctx, urls[i])
		}(i)
	}
	wg.Wait()

	n.mu.Lock()
	ringChanged := false
	for i, p := range n.peers {
		p.probes++
		wasDead := p.state == StateDead
		if ok[i] {
			if p.state != StateAlive {
				n.logf("cluster: peer %s %s -> alive", p.url, p.state)
			}
			p.fails = 0
			p.state = StateAlive
		} else {
			p.failures++
			p.fails++
			next := p.state
			switch {
			case p.fails >= deadAfter:
				next = StateDead
			case p.fails >= suspectAfter:
				next = StateSuspect
			}
			if next != p.state {
				n.logf("cluster: peer %s %s -> %s (%d consecutive failures)", p.url, p.state, next, p.fails)
				p.state = next
			}
		}
		if (p.state == StateDead) != wasDead {
			ringChanged = true
		}
	}
	if ringChanged {
		n.rebuildRingLocked()
		n.rebalances.Add(1)
	}
	n.mu.Unlock()
}

// probe issues one heartbeat GET through the probe hook and reports
// whether the peer answered healthily as the identity the peer list
// claims for it, hashing graphs as this replica does.
func (n *Node) probe(ctx context.Context, peerURL string) bool {
	if n.cfg.Probe == nil {
		return false
	}
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	status, body, err := n.cfg.Probe(ctx, peerURL)
	if err != nil || status != http.StatusOK {
		return false
	}
	hb, err := DecodeHeartbeat(bytes.NewReader(body))
	if err != nil {
		return false
	}
	return hb.From == peerURL && hb.FingerprintVersion == graph.FingerprintVersion
}
