// Fuzz target for the cluster wire message, the membership heartbeat. Its
// decoder faces bytes from other processes (and, with a misconfigured
// peer list, from arbitrary servers), so it must never panic and must
// only ever return validated messages.
package cluster

import (
	"bytes"
	"encoding/json"
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
