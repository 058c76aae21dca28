package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"respect/internal/graph"
	"respect/internal/jsonscan"
)

// defaultMaxBodyBytes bounds request bodies when Config.MaxBodyBytes is
// unset; the largest zoo graph serializes to well under a megabyte, so
// 16 MiB leaves ample headroom for batches.
const defaultMaxBodyBytes = 16 << 20

// maxPooledBodyBytes is the largest body buffer kept for reuse. The
// largest zoo document is 119 KB; a buffer that one large batch grew
// past this is left to the collector instead of pinning its peak size.
const maxPooledBodyBytes = 1 << 20

// bodyPool recycles the buffers request bodies are read into, responses
// are encoded into and forwarded answers are relayed through: an inline
// graph is 13-119 KB, and allocating that per request was a tenth of the
// server's CPU in collection alone.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads the size-capped request body into a pooled buffer,
// sized up front from Content-Length. It is the one request-body reader:
// the POST handlers decode the bytes in place and release the buffer
// when they return. An oversized body fails with *http.MaxBytesError.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, error) {
	return readPooled(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), min(r.ContentLength, s.cfg.MaxBodyBytes))
}

// readPooled reads all of r into a pooled buffer, sized up front from
// the declared length n (-1 when unknown). The caller releases it.
func readPooled(r io.Reader, n int64) (*bytes.Buffer, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	// The declared length is the sender's claim, so it sizes the buffer
	// only up to what the pool would keep; a larger body grows it as it
	// arrives.
	if n = min(n, maxPooledBodyBytes); n > 0 {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	if _, err := buf.ReadFrom(r); err != nil {
		releaseBody(buf)
		return nil, err
	}
	return buf, nil
}

// releaseBody returns a buffer from bodyPool to the pool.
func releaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBodyBytes {
		bodyPool.Put(buf)
	}
}

// inlineGraph is a request's inline graph document, decoded where it sat
// in the body. A /v1/schedule document stays unbuilt in doc, which the
// handler releases; a batch element or a periodic stream is built into
// g. A document the decoder refused keeps its error for the handler to
// report once the class is known, as a 400 observed under it.
type inlineGraph struct {
	doc *graph.Document
	g   *graph.Graph
	err error
}

// scan decodes the graph document under the cursor, building it unless
// unbuilt is set.
func (in *inlineGraph) scan(s *jsonscan.Scanner, unbuilt bool) error {
	var n int
	if unbuilt {
		in.doc, n, in.err = graph.DecodeJSON(s.Data[s.Pos:])
	} else {
		in.g, n, in.err = graph.ParseJSON(s.Data[s.Pos:])
	}
	if in.err != nil {
		// The walk goes on, so the rest of the body is still held to
		// account; a document too broken to step over fails the decode.
		return s.Skip()
	}
	s.Pos += n
	return nil
}

// release returns an unbuilt document's scratch; in may be nil.
func (in *inlineGraph) release() {
	if in != nil && in.doc != nil {
		in.doc.Release()
		in.doc = nil
	}
}

// walkEnvelope visits the top-level members of a request body in one
// pass: member is called with the cursor on each value and must consume
// it. Anything but whitespace after the closing brace is an error.
func walkEnvelope(body []byte, member func(s *jsonscan.Scanner, name []byte) error) error {
	s := jsonscan.Scanner{Data: body}
	if !s.Null() { // encoding/json decoded a null body as the zero request
		if err := s.Open('{'); err != nil {
			return err
		}
		for first := true; ; first = false {
			name, ok, err := s.Member(first)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if err := member(&s, name); err != nil {
				return err
			}
		}
	}
	if !s.AtEnd() {
		return fmt.Errorf("json: offset %d: data after the request object", s.Pos)
	}
	return nil
}

// scalar decodes the small value under the cursor into dst with
// encoding/json, from that value's own bytes.
func scalar(s *jsonscan.Scanner, name []byte, dst any) error {
	start := s.Pos
	if err := s.Skip(); err != nil {
		return err
	}
	if err := json.Unmarshal(s.Data[start:s.Pos], dst); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

func unknownField(name []byte) error { return fmt.Errorf("json: unknown field %q", name) }

var errDuplicateGraph = errors.New("json: duplicate graph member")

// decodeSchedule decodes a POST /v1/schedule body: ScheduleRequest's
// scalar members, and the graph member into in, unbuilt, instead of
// req.Graph. in is nil when the body has no graph member; the caller
// releases it, whether or not err is set.
func decodeSchedule(body []byte) (req ScheduleRequest, in *inlineGraph, err error) {
	err = walkEnvelope(body, func(s *jsonscan.Scanner, name []byte) error {
		switch string(name) {
		case "model":
			return scalar(s, name, &req.Model)
		case "graph":
			if in != nil {
				return errDuplicateGraph
			}
			in = new(inlineGraph)
			return in.scan(s, true)
		case "stages":
			return scalar(s, name, &req.Stages)
		case "class":
			return scalar(s, name, &req.Class)
		case "backends":
			return scalar(s, name, &req.Backends)
		case "trace":
			return scalar(s, name, &req.Trace)
		}
		return unknownField(name)
	})
	return req, in, err
}

// decodeBatch decodes a POST /v1/batch body: BatchRequest's scalar
// members, and the graphs member into one inlineGraph per element. After
// the first document that fails, the rest are stepped over undecoded:
// the handler reports errors in order and stops at that one.
func decodeBatch(body []byte) (req BatchRequest, graphs []inlineGraph, err error) {
	seen := false
	err = walkEnvelope(body, func(s *jsonscan.Scanner, name []byte) error {
		switch string(name) {
		case "models":
			return scalar(s, name, &req.Models)
		case "graphs":
			if seen {
				return errDuplicateGraph
			}
			if seen = true; s.Null() {
				return nil
			}
			if err := s.Open('['); err != nil {
				return err
			}
			failed := false
			for first := true; ; first = false {
				ok, err := s.Element(first)
				if !ok {
					return err
				}
				var in inlineGraph
				if failed {
					err = s.Skip()
				} else {
					err = in.scan(s, false)
					failed = in.err != nil
				}
				if err != nil {
					return err
				}
				graphs = append(graphs, in)
			}
		case "stages":
			return scalar(s, name, &req.Stages)
		case "class":
			return scalar(s, name, &req.Class)
		case "backend":
			return scalar(s, name, &req.Backend)
		case "jobs":
			return scalar(s, name, &req.Jobs)
		}
		return unknownField(name)
	})
	return req, graphs, err
}

// decodePeriodic decodes a POST /v1/periodic body, as decodeSchedule,
// but builds the graph: a stream keeps it for as long as it runs.
func decodePeriodic(body []byte) (req PeriodicRequest, in *inlineGraph, err error) {
	err = walkEnvelope(body, func(s *jsonscan.Scanner, name []byte) error {
		switch string(name) {
		case "name":
			return scalar(s, name, &req.Name)
		case "model":
			return scalar(s, name, &req.Model)
		case "graph":
			if in != nil {
				return errDuplicateGraph
			}
			in = new(inlineGraph)
			return in.scan(s, false)
		case "stages":
			return scalar(s, name, &req.Stages)
		case "class":
			return scalar(s, name, &req.Class)
		case "period_ms":
			return scalar(s, name, &req.PeriodMS)
		case "deadline_ms":
			return scalar(s, name, &req.DeadlineMS)
		case "cost_ms":
			return scalar(s, name, &req.CostMS)
		}
		return unknownField(name)
	})
	return req, in, err
}
