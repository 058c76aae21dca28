// Fuzz targets for the cluster wire messages: membership heartbeats and
// speculation gossip. Both decoders face bytes from other processes (and,
// with a misconfigured peer list, from arbitrary servers), so they must
// never panic and must only ever return validated messages.
package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func FuzzDecodeHeartbeat(f *testing.F) {
	n, err := New(Config{Self: "http://a:1", Peers: []string{"http://b:1"}})
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := json.NewEncoder(&seed).Encode(n.Heartbeat()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"from":"http://x:1","uptime_seconds":3.5,"peers":{"http://y:1":"suspect"}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"from":"ftp://x:1"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		hb, err := DecodeHeartbeat(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted heartbeats carry a dialable identity and survive a
		// re-encode/decode round trip.
		if hb.From == "" || checkURL(hb.From) != nil {
			t.Fatalf("accepted heartbeat with bad from %q", hb.From)
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(hb); err != nil {
			t.Fatal(err)
		}
		back, err := DecodeHeartbeat(&buf)
		if err != nil {
			t.Fatalf("re-decode of accepted heartbeat failed: %v", err)
		}
		if back.From != hb.From {
			t.Fatalf("round trip changed from %q -> %q", hb.From, back.From)
		}
	})
}

func FuzzDecodeGossip(f *testing.F) {
	var seed bytes.Buffer
	err := EncodeGossip(&seed, "http://a:1", []HotEntry{
		{Class: "interactive", Graph: testGraph(1), Stages: 4, Score: 2.5},
		{Class: "batch", Graph: testGraph(2), Stages: 2, Score: 1},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"from":"http://a:1","entries":[]}`))
	f.Add([]byte(`{"from":"http://a:1","entries":[{"stages":4,"score":1,"graph":{"bad":1}}]}`))
	f.Add([]byte(`{"from":"http://a:1","entries":[{"stages":4,"score":1e308,"graph":null}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(strings.Repeat("[", 64)))

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeGossip(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Every accepted entry is actionable: parsed graph, sane stage
		// count, finite positive bounded score.
		if msg.From == "" || checkURL(msg.From) != nil {
			t.Fatalf("accepted gossip with bad from %q", msg.From)
		}
		if len(msg.Entries) > maxGossipEntries {
			t.Fatalf("accepted %d entries (max %d)", len(msg.Entries), maxGossipEntries)
		}
		for _, e := range msg.Entries {
			if e.Graph == nil {
				t.Fatal("accepted entry with nil graph")
			}
			if e.Stages < 1 || e.Stages > 64 {
				t.Fatalf("accepted entry with stages %d", e.Stages)
			}
			if math.IsNaN(e.Score) || math.IsInf(e.Score, 0) || e.Score <= 0 || e.Score > maxGossipScore {
				t.Fatalf("accepted entry with score %v", e.Score)
			}
			// The graph must survive the solver path's own serialization.
			var buf bytes.Buffer
			if err := e.Graph.WriteJSON(&buf); err != nil {
				t.Fatalf("accepted graph does not re-encode: %v", err)
			}
		}
	})
}
