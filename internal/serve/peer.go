package serve

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// peerLink is a replica's client for its peers: the /v1/schedule forward
// and the membership heartbeat. An exchange sends bytes the caller already
// holds and reads back one bounded answer, so it needs none of net/http's
// client machinery. It keeps one stack of idle HTTP/1.1 connections per
// peer, shared by forwards and heartbeats, writes each request in one
// Write, reads each answer whole on the caller's goroutine and starts no
// goroutine of its own.
type peerLink struct {
	self    string // sent as ForwardedFromHeader
	dial    func(ctx context.Context, network, addr string) (net.Conn, error)
	maxIdle int // idle connections kept per peer

	mu      sync.Mutex
	targets map[string]*peerTarget // by advertise URL
	closed  bool
}

// peerTarget is one peer as the link reaches it, and its idle connections.
type peerTarget struct {
	addr   string      // host:port to dial
	host   string      // the Host header
	prefix string      // the advertise URL's path, ahead of each request path
	tls    *tls.Config // nil over plain http
	idle   []*peerConn // a stack: the most recently used on top
}

// peerConn is one connection to a peer and the reader its answers are
// parsed from, which lives as long as the connection.
type peerConn struct {
	net.Conn
	br *bufio.Reader
}

// errNoAnswer marks an exchange that failed before any byte of the answer
// arrived: on a reused connection that is a peer that closed it while it
// sat idle, and the request is sent once more on a fresh one.
var errNoAnswer = errors.New("serve: peer connection failed before answering")

// aLongTimeAgo is a deadline in the past; setting it aborts pending I/O.
var aLongTimeAgo = time.Unix(1, 0)

// newPeerLink returns a link that sends as self, dials with dial (a plain
// net.Dialer when nil), and keeps up to maxIdle idle connections per peer.
func newPeerLink(self string, dial func(ctx context.Context, network, addr string) (net.Conn, error), maxIdle int) *peerLink {
	if dial == nil {
		dial = new(net.Dialer).DialContext
	}
	return &peerLink{self: self, dial: dial, maxIdle: maxIdle, targets: make(map[string]*peerTarget)}
}

// send sends a method request of path, with body, to target as this
// replica and reads the answer whole into a pooled buffer, at most limit
// bytes of it; the caller releases the buffer and judges the status. The
// exchange runs under ctx's deadline and stops when ctx is cancelled. A
// connection whose answer was read to its end, within limit, and that the
// peer did not ask to close goes back to the idle stack. A reused
// connection that fails before any byte of the answer arrives is retried
// once on a fresh dial.
func (l *peerLink) send(ctx context.Context, method, target, path string, body []byte, limit int64) (status int, retryAfter string, answer *bytes.Buffer, err error) {
	t, pc, err := l.take(target)
	if err != nil {
		return 0, "", nil, err
	}
	req := bodyPool.Get().(*bytes.Buffer)
	defer releaseBody(req)
	req.Reset()
	t.writeRequest(req, method, path, l.self, body)

	reused := pc != nil
	if !reused {
		if pc, err = l.dialConn(ctx, t); err != nil {
			return 0, "", nil, err
		}
	}
	status, retryAfter, answer, err = l.exchange(ctx, t, pc, req.Bytes(), limit)
	if reused && errors.Is(err, errNoAnswer) && ctx.Err() == nil {
		if pc, err = l.dialConn(ctx, t); err != nil {
			return 0, "", nil, err
		}
		status, retryAfter, answer, err = l.exchange(ctx, t, pc, req.Bytes(), limit)
	}
	return status, retryAfter, answer, err
}

// get sends a GET of path to target and returns the status and a copy of
// the body of an answer read whole within limit. With a path and limit
// bound it is the membership node's probe hook.
func (l *peerLink) get(ctx context.Context, target, path string, limit int64) (int, []byte, error) {
	status, _, answer, err := l.send(ctx, http.MethodGet, target, path, nil, limit)
	if err != nil {
		return 0, nil, err
	}
	defer releaseBody(answer)
	return status, bytes.Clone(answer.Bytes()), nil
}

// take returns target's parsed form and pops an idle connection to it,
// nil when there is none.
func (l *peerLink) take(target string) (*peerTarget, *peerConn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.targets[target]
	if t == nil {
		var err error
		if t, err = parsePeerTarget(target); err != nil {
			return nil, nil, err
		}
		l.targets[target] = t
	}
	n := len(t.idle)
	if n == 0 {
		return t, nil, nil
	}
	pc := t.idle[n-1]
	t.idle[n-1] = nil
	t.idle = t.idle[:n-1]
	return t, pc, nil
}

// put returns pc to t's idle stack, or closes it when the stack is full
// or the link is closed.
func (l *peerLink) put(t *peerTarget, pc *peerConn) {
	l.mu.Lock()
	if !l.closed && len(t.idle) < l.maxIdle {
		t.idle = append(t.idle, pc)
		pc = nil
	}
	l.mu.Unlock()
	if pc != nil {
		pc.Close()
	}
}

// closeIdle closes every idle connection; connections in use are closed
// when their exchange ends.
func (l *peerLink) closeIdle() {
	l.mu.Lock()
	l.closed = true
	var idle []*peerConn
	for _, t := range l.targets {
		idle = append(idle, t.idle...)
		t.idle = nil
	}
	l.mu.Unlock()
	for _, pc := range idle {
		pc.Close()
	}
}

// parsePeerTarget splits an advertise URL into what dialing and
// addressing it need.
func parsePeerTarget(target string) (*peerTarget, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, err
	}
	t := &peerTarget{host: u.Host, prefix: u.EscapedPath()}
	port := u.Port()
	switch u.Scheme {
	case "http":
		if port == "" {
			port = "80"
		}
	case "https":
		if port == "" {
			port = "443"
		}
		t.tls = &tls.Config{ServerName: u.Hostname()}
	default:
		return nil, fmt.Errorf("serve: peer %q: scheme %q: want http or https", target, u.Scheme)
	}
	t.addr = net.JoinHostPort(u.Hostname(), port)
	return t, nil
}

// writeRequest lays out a method request of body to path in buf.
func (t *peerTarget) writeRequest(buf *bytes.Buffer, method, path, self string, body []byte) {
	buf.Grow(len(method) + len(t.prefix) + len(path) + len(t.host) + len(self) + len(body) + 128)
	buf.WriteString(method)
	buf.WriteByte(' ')
	buf.WriteString(t.prefix)
	buf.WriteString(path)
	buf.WriteString(" HTTP/1.1\r\nHost: ")
	buf.WriteString(t.host)
	buf.WriteString("\r\nContent-Type: application/json\r\n" + ForwardedFromHeader + ": ")
	buf.WriteString(self)
	buf.WriteString("\r\nContent-Length: ")
	buf.Write(strconv.AppendInt(buf.AvailableBuffer(), int64(len(body)), 10))
	buf.WriteString("\r\n\r\n")
	buf.Write(body)
}

// dialConn opens a connection to t, TLS over it for an https peer.
func (l *peerLink) dialConn(ctx context.Context, t *peerTarget) (*peerConn, error) {
	c, err := l.dial(ctx, "tcp", t.addr)
	if err != nil {
		return nil, err
	}
	if t.tls != nil {
		tc := tls.Client(c, t.tls)
		if err := tc.HandshakeContext(ctx); err != nil {
			c.Close()
			return nil, err
		}
		c = tc
	}
	return &peerConn{Conn: c, br: bufio.NewReader(c)}, nil
}

// exchange writes req on pc and reads the answer, then pools or closes
// pc. An error before any byte of the answer arrived wraps errNoAnswer.
func (l *peerLink) exchange(ctx context.Context, t *peerTarget, pc *peerConn, req []byte, limit int64) (status int, retryAfter string, answer *bytes.Buffer, err error) {
	deadline, _ := ctx.Deadline() // zero clears a reused connection's last one
	pc.SetDeadline(deadline)
	stop := context.AfterFunc(ctx, func() { pc.SetDeadline(aLongTimeAgo) })
	keep := false
	defer func() {
		// A connection whose I/O ctx aborted has a deadline in the past.
		if stop() && keep {
			l.put(t, pc)
		} else {
			pc.Close()
		}
		if err != nil && ctx.Err() != nil {
			err = ctx.Err()
		}
	}()
	if _, err := pc.Write(req); err != nil {
		return 0, "", nil, fmt.Errorf("%w: %v", errNoAnswer, err)
	}
	if _, err := pc.br.Peek(1); err != nil {
		return 0, "", nil, fmt.Errorf("%w: %v", errNoAnswer, err)
	}
	resp, err := http.ReadResponse(pc.br, nil)
	if err != nil {
		return 0, "", nil, err
	}
	if resp.StatusCode < http.StatusOK {
		return 0, "", nil, fmt.Errorf("serve: peer answered with informational status %d", resp.StatusCode)
	}
	answer, err = readPooled(io.LimitReader(resp.Body, limit), min(resp.ContentLength, limit))
	if err != nil {
		return 0, "", nil, err
	}
	// An answer shorter than limit was read to its end; nothing may follow
	// it before the next request.
	keep = resp.ContentLength >= 0 && !resp.Close && int64(answer.Len()) < limit && pc.br.Buffered() == 0
	return resp.StatusCode, resp.Header.Get("Retry-After"), answer, nil
}
