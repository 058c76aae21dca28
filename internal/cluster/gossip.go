package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"

	"respect/internal/graph"
	"respect/internal/sched"
)

// maxGossipEntries bounds the entries accepted in one gossip message.
const maxGossipEntries = 256

// maxGossipScore clamps incoming popularity scores so one peer cannot
// poison the fleet's demand signal with an absurd value.
const maxGossipScore = 1e6

// gossipEntryJSON is the wire form of one HotEntry.
type gossipEntryJSON struct {
	Class  string          `json:"class,omitempty"`
	Stages int             `json:"stages"`
	Score  float64         `json:"score"`
	Graph  json.RawMessage `json:"graph"`
}

// gossipMessageJSON is the wire form of a gossip push.
type gossipMessageJSON struct {
	From    string            `json:"from"`
	Entries []gossipEntryJSON `json:"entries"`
}

// GossipMessage is a decoded gossip push: the sender's advertise URL and
// its hot entries with fully parsed graphs.
type GossipMessage struct {
	// From is the sender's advertise URL.
	From string
	// Entries are the sender's hot instances, graphs parsed and validated.
	Entries []HotEntry
}

// EncodeGossip writes a gossip message for entries to w. Entries without
// a graph are skipped — a key the sender cannot re-solve is useless to a
// peer.
func EncodeGossip(w io.Writer, from string, entries []HotEntry) error {
	msg := gossipMessageJSON{From: from}
	for _, e := range entries {
		if e.Graph == nil {
			continue
		}
		var buf bytes.Buffer
		if err := e.Graph.WriteJSON(&buf); err != nil {
			return fmt.Errorf("cluster: gossip encode graph %q: %w", e.Graph.Name, err)
		}
		msg.Entries = append(msg.Entries, gossipEntryJSON{
			Class:  e.Class,
			Stages: e.Stages,
			Score:  e.Score,
			Graph:  json.RawMessage(buf.Bytes()),
		})
	}
	return json.NewEncoder(w).Encode(msg)
}

// DecodeGossip parses and validates a gossip message. Structural problems
// (malformed JSON, missing From, too many entries) are errors; individual
// entries that fail validation — unparseable graph, stage count outside
// [1, sched.MaxStages], non-finite or non-positive score — are dropped so
// version skew in entry contents cannot take down the whole exchange.
// Scores are clamped to a sane ceiling.
func DecodeGossip(r io.Reader) (*GossipMessage, error) {
	var raw gossipMessageJSON
	dec := json.NewDecoder(io.LimitReader(r, maxWireBytes))
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("cluster: gossip decode: %w", err)
	}
	if raw.From == "" {
		return nil, errors.New("cluster: gossip missing from")
	}
	if err := checkURL(raw.From); err != nil {
		return nil, fmt.Errorf("cluster: gossip from %q: %w", raw.From, err)
	}
	if len(raw.Entries) > maxGossipEntries {
		return nil, fmt.Errorf("cluster: gossip has %d entries (max %d)", len(raw.Entries), maxGossipEntries)
	}
	msg := &GossipMessage{From: raw.From}
	for _, e := range raw.Entries {
		if e.Stages < 1 || e.Stages > sched.MaxStages {
			continue
		}
		if math.IsNaN(e.Score) || math.IsInf(e.Score, 0) || e.Score <= 0 {
			continue
		}
		if e.Score > maxGossipScore {
			e.Score = maxGossipScore
		}
		g, _, err := graph.ParseJSON(e.Graph)
		if err != nil || g.NumNodes() == 0 {
			continue // unparseable or empty graphs cannot warm anything
		}
		msg.Entries = append(msg.Entries, HotEntry{
			Class:  e.Class,
			Graph:  g,
			Stages: e.Stages,
			Score:  e.Score,
		})
	}
	return msg, nil
}

// GossipOnce pushes the local hot set to every alive peer and returns the
// number of successful sends. Without a Source, or with nothing hot, it
// is a no-op.
func (n *Node) GossipOnce(ctx context.Context) int {
	if n.cfg.Source == nil {
		return 0
	}
	entries := n.cfg.Source.HotEntries(gossipTopK)
	kept := entries[:0]
	for _, e := range entries {
		if e.Graph != nil && e.Score > 0 {
			kept = append(kept, e)
		}
	}
	if len(kept) == 0 {
		return 0
	}
	var buf bytes.Buffer
	if err := EncodeGossip(&buf, n.cfg.Self, kept); err != nil {
		n.logf("cluster: gossip encode: %v", err)
		return 0
	}

	n.mu.Lock()
	var targets []string
	for _, p := range n.peers {
		if p.state == StateAlive {
			targets = append(targets, p.url)
		}
	}
	n.mu.Unlock()

	var sent atomic.Int64
	var wg sync.WaitGroup
	for _, t := range targets {
		wg.Add(1)
		go func(target string) {
			defer wg.Done()
			if n.gossipTo(ctx, target, buf.Bytes()) {
				n.gossipSent.Add(1)
				sent.Add(1)
			} else {
				n.gossipSendErrors.Add(1)
			}
		}(t)
	}
	wg.Wait()
	return int(sent.Load())
}

// gossipTo POSTs one encoded gossip message to a peer.
func (n *Node) gossipTo(ctx context.Context, target string, body []byte) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+GossipPath, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.client.Do(req)
	if err != nil {
		return false
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxWireBytes))
		resp.Body.Close()
	}()
	return resp.StatusCode == http.StatusOK
}

// ReceiveGossip folds a decoded gossip message into the local sink and
// returns how many keys were merged. The serving layer calls it from its
// gossip endpoint handler.
func (n *Node) ReceiveGossip(msg *GossipMessage) int {
	n.gossipReceived.Add(1)
	if n.cfg.Sink == nil {
		return 0
	}
	merged := n.cfg.Sink.MergeRemote(msg.From, msg.Entries)
	if merged > 0 {
		n.gossipMerged.Add(uint64(merged))
	}
	return merged
}
