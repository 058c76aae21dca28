package serve

import (
	"bufio"
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestPeerLinkSpeaksTLS: an https peer gets TLS over the dialed
// connection, checked against the host's name. Against a test server
// whose certificate nothing trusts, the hop fails on that certificate,
// not on the framing of an answer; trusting it, the hop is answered.
func TestPeerLinkSpeaksTLS(t *testing.T) {
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, `{"graph":"from-the-owner"}`)
	}))
	ts.Config.ErrorLog = log.New(io.Discard, "", 0) // the refused handshake is expected
	ts.StartTLS()
	defer ts.Close()
	link := newPeerLink("http://forwarder.test:80", nil, 4)
	defer link.closeIdle()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	_, _, _, err := link.send(ctx, http.MethodPost, ts.URL, "/v1/schedule", []byte(`{}`), 1<<10)
	var certErr *tls.CertificateVerificationError
	if !errors.As(err, &certErr) {
		t.Fatalf("post to %s: %v, want a certificate verification error", ts.URL, err)
	}

	roots := x509.NewCertPool()
	roots.AddCert(ts.Certificate())
	link.targets[ts.URL].tls.RootCAs = roots
	status, _, answer, err := link.send(ctx, http.MethodPost, ts.URL, "/v1/schedule", []byte(`{}`), 1<<10)
	if err != nil || status != http.StatusOK || answer.String() != `{"graph":"from-the-owner"}` {
		t.Fatalf("post over trusted TLS: status %d, %v: %v", status, answer, err)
	}
	releaseBody(answer)
}

// fuzzPeer is a stand-in home shard for FuzzPeerAnswer: it answers a
// request whose body is "first" with the bytes under test, written at
// once, and any other request with fuzzSecondAnswer, on whatever
// connection the request came in on.
type fuzzPeer struct {
	url string

	mu    sync.Mutex
	first []byte
}

const fuzzSecondBody = `{"graph":"second"}`

var fuzzSecondAnswer = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 18\r\n\r\n" + fuzzSecondBody

func newFuzzPeer(f *testing.F) *fuzzPeer {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { ln.Close() })
	p := &fuzzPeer{url: "http://" + ln.Addr().String()}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go p.serve(c)
		}
	}()
	return p
}

func (p *fuzzPeer) serve(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	for {
		req, err := http.ReadRequest(br)
		if err != nil {
			return
		}
		body, _ := io.ReadAll(req.Body)
		answer := []byte(fuzzSecondAnswer)
		if string(body) == "first" {
			p.mu.Lock()
			answer = p.first
			p.mu.Unlock()
		}
		if _, err := c.Write(answer); err != nil {
			return
		}
	}
}

// FuzzPeerAnswer serves arbitrary bytes as a peer's answer to a forward,
// then a valid answer to a second forward. Whatever the first answer, the
// relay does not panic, relays nothing above MaxBodyBytes and no 5xx, and
// the second forward, on the first one's connection if the link kept it,
// relays its answer intact. The first forward's deadline is short: an
// answer that never completes costs that long.
func FuzzPeerAnswer(f *testing.F) {
	const maxBody = 256
	sized := func(status, extra, body string) string {
		return "HTTP/1.1 " + status + "\r\n" + extra + "Content-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body
	}
	for _, seed := range []string{
		sized("200 OK", "", `{"graph":"first"}`),
		sized("200 OK", "Connection: close\r\n", `{}`),
		sized("429 Too Many Requests", "Retry-After: 1\r\n", `{"error":"busy"}`),
		sized("503 Service Unavailable", "", `{}`),
		sized("200 OK", "", string(make([]byte, maxBody+1))),
		sized("200 OK", "", `{}`) + "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}",
		sized("204 No Content", "", ""),
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
		"HTTP/1.1 100 Continue\r\n\r\n" + sized("200 OK", "", `{}`),
		"HTTP/1.0 200 OK\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{}",
		"HTTP/1.1 000 Zero\r\nContent-Length: 0\r\n\r\n",
		"garbage\r\n\r\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	peer := newFuzzPeer(f)
	s, err := New(Config{
		WarmModels:   []string{},
		MaxBodyBytes: maxBody,
		Cluster:      ClusterConfig{Advertise: "http://forwarder.test:80", Peers: []string{peer.url}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.cluster.link.closeIdle)
	relay := func(body string, budget time.Duration) (*httptest.ResponseRecorder, bool) {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/schedule", nil)
		return w, s.relaySchedule(w, r, peer.url, []byte(body), ClassInteractive, budget, time.Now())
	}
	f.Fuzz(func(t *testing.T, answer []byte) {
		peer.mu.Lock()
		peer.first = answer
		peer.mu.Unlock()
		if w, ok := relay("first", 5*time.Millisecond); ok && (w.Body.Len() > maxBody || w.Code >= 500) {
			t.Fatalf("relayed status %d with %d bytes, bound %d", w.Code, w.Body.Len(), maxBody)
		}
		w, ok := relay("second", time.Second)
		if !ok || w.Code != http.StatusOK || w.Body.String() != fuzzSecondBody || w.Header().Get(ForwardedToHeader) != peer.url {
			t.Fatalf("second forward: relayed %v, status %d, forwarded to %q: %q", ok, w.Code, w.Header().Get(ForwardedToHeader), w.Body.String())
		}
	})
}
