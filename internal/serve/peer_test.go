package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"respect/internal/cluster"
	"respect/internal/models"
	"respect/internal/serve"
)

// ownerAnswer is the answer the stand-in owners give a forward.
const ownerAnswer = `{"graph":"from-the-owner"}`

// sizedAnswer is a 200 carrying body with its Content-Length, after the
// extra header lines (each ending in CRLF).
func sizedAnswer(body, extra string) string {
	return "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n" + extra +
		"Content-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body
}

// scriptedPeer is a stand-in home shard on a bare listener, so that how
// it frames an answer and when it hangs up are the test's to choose: it
// reads each request on a connection and writes what answer returns for
// the n-th request it read. An empty answer holds the request unanswered
// until the forwarder closes the connection; hangUp closes it after the
// answer. It counts the connections it accepted and has seen closed.
type scriptedPeer struct {
	url      string
	conns    atomic.Int64
	closed   atomic.Int64
	requests atomic.Int64
	// hungUp receives the time the forwarder closed a held connection;
	// its buffer outlasts any test's held requests, so a connection's
	// goroutine never blocks on it.
	hungUp chan time.Time
}

func newScriptedPeer(t *testing.T, answer func(n int) (resp string, hangUp bool)) *scriptedPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &scriptedPeer{url: "http://" + ln.Addr().String(), hungUp: make(chan time.Time, 16)}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns []net.Conn
	)
	serveConn := func(c net.Conn) {
		defer wg.Done()
		defer p.closed.Add(1)
		defer c.Close()
		br := bufio.NewReader(c)
		for {
			req, err := http.ReadRequest(br)
			if err != nil {
				return
			}
			io.Copy(io.Discard, req.Body)
			resp, hangUp := answer(int(p.requests.Add(1)))
			if resp == "" {
				br.Peek(1) // returns when the forwarder hangs up
				p.hungUp <- time.Now()
				return
			}
			if _, err := io.WriteString(c, resp); err != nil || hangUp {
				return
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.conns.Add(1)
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			wg.Add(1)
			go serveConn(c)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return p
}

// forwarderOf wraps a forwarder built by newForwarderWith and returns a
// by-name request for a model its peer owns.
func forwarderOf(t *testing.T, cfg serve.Config, owner string) (*serve.Server, []byte) {
	t.Helper()
	cfg.WarmModels = []string{}
	srv, owned := newForwarderWith(t, cfg, owner, models.Names())
	return srv, []byte(`{"model":"` + owned[0] + `"}`)
}

// TestPeerLinkRetriesStaleConnection: a pooled connection the peer closed
// while it sat idle fails before any byte of the answer arrives, and the
// forward is sent once more on a fresh connection and answered.
func TestPeerLinkRetriesStaleConnection(t *testing.T) {
	peer := newScriptedPeer(t, func(int) (string, bool) { return sizedAnswer(ownerAnswer, ""), true })
	srv, body := forwarderOf(t, serve.Config{}, peer.url)
	for i := 0; i < 2; i++ {
		if code, to, data := serveSchedule(srv, body); code != http.StatusOK || to != peer.url || string(data) != ownerAnswer {
			t.Fatalf("forward %d: status %d, forwarded to %q: %s", i, code, to, data)
		}
		waitFor(t, func() bool { return peer.closed.Load() == int64(i+1) }) // the peer hung up
	}
	st := srv.ClusterStats()
	if st.ForwardsRelayed != 2 || st.ForwardErrors != 0 || peer.conns.Load() != 2 || peer.requests.Load() != 2 {
		t.Errorf("relayed %d, forward errors %d, over %d connections with %d requests read; want 2, 0, 2, 2",
			st.ForwardsRelayed, st.ForwardErrors, peer.conns.Load(), peer.requests.Load())
	}
}

// TestHeartbeatRidesPeerLink: membership probes go over the peer link's
// pooled connections, dialled through ClusterConfig.Dial. Twenty probe
// rounds against a healthy peer dial once, and a peer that closed the
// idle connection is dialled again and still probes healthy.
func TestHeartbeatRidesPeerLink(t *testing.T) {
	peer := newRecordingOwner(t, 0)
	var dials atomic.Int64
	self := "http://prober.test:80"
	srv, err := serve.New(serve.Config{WarmModels: []string{}, Cluster: serve.ClusterConfig{
		Advertise: self,
		Peers:     []string{self, peer.ts.URL},
		Dial: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return new(net.Dialer).DialContext(ctx, network, addr)
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	node := srv.Cluster()
	probe := func(round int) {
		node.ProbeOnce(context.Background())
		if st, _ := node.PeerState(peer.ts.URL); st != cluster.StateAlive {
			t.Fatalf("probe round %d: peer %s, want alive", round, st)
		}
	}
	for round := 0; round < 20; round++ {
		probe(round)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("20 probe rounds dialled %d times, want 1", n)
	}
	peer.ts.CloseClientConnections()
	waitFor(t, func() bool { return peer.open.Load() == 0 })
	probe(20)
	if n := dials.Load(); n != 2 {
		t.Fatalf("a probe after the peer closed the idle connection: %d dials in all, want 2", n)
	}
	if m := node.Stats().Members[1]; m.Probes != 21 || m.Failures != 0 {
		t.Fatalf("peer row %+v: want 21 probes and no failure", m)
	}
	peer.mu.Lock()
	defer peer.mu.Unlock()
	if len(peer.bodies) != 0 {
		t.Fatalf("the peer received %d requests besides heartbeats", len(peer.bodies))
	}
}

// TestPeerLinkPoolsOnlyWholeAnswers: a connection is reused only after an
// answer that had a length, was read whole within the bound, and did not
// ask to close it. An answer above the bound is not relayed at all: the
// forwarder solves locally.
func TestPeerLinkPoolsOnlyWholeAnswers(t *testing.T) {
	const maxBody = 1024
	cases := []struct {
		name    string
		answer  string
		relayed bool
	}{
		{"Connection: close", sizedAnswer(ownerAnswer, "Connection: close\r\n"), true},
		{"no length", "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n" +
			strconv.FormatInt(int64(len(ownerAnswer)), 16) + "\r\n" + ownerAnswer + "\r\n0\r\n\r\n", true},
		{"above the limit", sizedAnswer(`{"graph":"`+string(bytes.Repeat([]byte("x"), maxBody))+`"}`, ""), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			peer := newScriptedPeer(t, func(int) (string, bool) { return tc.answer, false })
			srv, body := forwarderOf(t, serve.Config{MaxBodyBytes: maxBody}, peer.url)
			for i := 0; i < 2; i++ {
				code, to, data := serveSchedule(srv, body)
				if tc.relayed && (code != http.StatusOK || to != peer.url || string(data) != ownerAnswer) {
					t.Fatalf("forward %d: status %d, forwarded to %q: %s", i, code, to, data)
				}
				if !tc.relayed && (code != http.StatusOK || to != "" || !bytes.Contains(data, []byte(`"stage":`))) {
					t.Fatalf("forward %d was not solved locally: status %d, forwarded to %q: %.200s", i, code, to, data)
				}
			}
			if n := peer.conns.Load(); n != 2 {
				t.Errorf("two forwards opened %d connections, want 2: the first was pooled", n)
			}
			if st := srv.ClusterStats(); !tc.relayed && st.ForwardErrors != 2 {
				t.Errorf("forward errors %d, want 2", st.ForwardErrors)
			}
		})
	}
}

// TestCancelledRequestAbortsHop: a client that goes away while the owner
// is still solving closes the hop's connection at once, not at the end of
// the forward deadline (ten seconds on the batch class).
func TestCancelledRequestAbortsHop(t *testing.T) {
	peer := newScriptedPeer(t, func(int) (string, bool) { return "", false })
	srv, owned := newForwarderWith(t, serve.Config{WarmModels: []string{}}, peer.url, models.Names())
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule",
		bytes.NewReader([]byte(`{"model":"`+owned[0]+`","class":"batch"}`))).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeHTTP(rec, req)
	}()
	waitFor(t, func() bool { return peer.requests.Load() == 1 }) // the forward reached the owner
	cancelled := time.Now()
	cancel()
	select {
	case hungUp := <-peer.hungUp:
		t.Logf("hop closed %v after the cancel", hungUp.Sub(cancelled))
		if d := hungUp.Sub(cancelled); d > 250*time.Millisecond {
			t.Errorf("the hop closed %v after the client went away", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the hop outlived the cancelled request")
	}
	<-done
	if to := rec.Header().Get(serve.ForwardedToHeader); to != "" {
		t.Errorf("a cancelled forward was relayed from %q", to)
	}
}

// TestIdleConnectionsBoundedBySlots: a burst wider than the peer's
// admission slots (the sum of the class MaxConcurrent limits) opens a
// connection per forward, and afterwards no more connections than slots
// stay open.
func TestIdleConnectionsBoundedBySlots(t *testing.T) {
	slots := 0
	for _, p := range serve.DefaultClasses() {
		slots += p.MaxConcurrent
	}
	burst := slots + 10
	owner := newRecordingOwner(t, burst)
	srv, body := forwarderOf(t, serve.Config{}, owner.ts.URL)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, to, _ := serveSchedule(srv, body); to == "" {
				t.Error("request was not forwarded")
			}
		}()
	}
	wg.Wait()
	if n := owner.conns.Load(); n != int64(burst) {
		t.Fatalf("a burst of %d forwards opened %d connections", burst, n)
	}
	waitFor(t, func() bool { return owner.open.Load() <= int64(slots) })
	if n := owner.open.Load(); n != int64(slots) {
		t.Errorf("%d connections stay open after the burst, want the %d the idle stack keeps", n, slots)
	}
	// The forwarder stays reachable to here: a collected one would close
	// its idle connections with it.
	if st := srv.ClusterStats(); st.ForwardsRelayed != uint64(burst) {
		t.Errorf("relayed %d of %d forwards", st.ForwardsRelayed, burst)
	}
}

// TestShutdownClosesPeerConnections: when Run returns, no connection to
// a peer is left open, neither a forward's nor a heartbeat's.
func TestShutdownClosesPeerConnections(t *testing.T) {
	owner := newRecordingOwner(t, 0)
	srv, body := forwarderOf(t, serve.Config{}, owner.ts.URL)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := make(chan error, 1)
	go func() { ran <- srv.Run(ctx, ln) }()

	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Post("http://"+ln.Addr().String()+"/v1/schedule", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.Header.Get(serve.ForwardedToHeader) == "" {
				t.Errorf("request was not forwarded (status %d)", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if owner.open.Load() == 0 {
		t.Fatal("no forward connection stayed open to test shutdown with")
	}
	cancel()
	if err := <-ran; err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return owner.open.Load() == 0 }) // every peer connection closed
}

// TestForwardsStartNoGoroutines: the hop runs on the handler's goroutine,
// so once the first forward has opened the pooled connection, a thousand
// more leave no goroutine behind. Goroutines other tests left may still be
// exiting, so the count may fall, but must not rise.
func TestForwardsStartNoGoroutines(t *testing.T) {
	owner := newDiscardingOwner(t)
	srv, body := forwarderOf(t, serve.Config{}, owner.URL)
	forward := func() {
		if code, to, data := serveSchedule(srv, body); to == "" {
			t.Fatalf("not forwarded (status %d): %s", code, data)
		}
	}
	forward()
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		forward()
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
	if st := srv.ClusterStats(); st.ForwardsRelayed != 1001 || st.ForwardErrors != 0 {
		t.Errorf("relayed %d with %d forward errors, want 1001 and 0", st.ForwardsRelayed, st.ForwardErrors)
	}
}
