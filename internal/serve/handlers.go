package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"respect/internal/graph"
	"respect/internal/models"
	"respect/internal/sched"
	"respect/internal/solver"
)

// Request outcome labels on the respect_request_duration_seconds
// histogram. Every request that resolved to a class is observed exactly
// once under one of these.
const (
	outcomeOK               = "ok"                // 200 with a schedule
	outcomeInvalid          = "invalid"           // 4xx request validation after class resolution
	outcomeError            = "error"             // 422: every backend failed
	outcomeTimeout          = "timeout"           // 504: budget expired with no schedule at all
	outcomeRejectedCapacity = "rejected_capacity" // 429: admission queue full
	outcomeRejectedTimeout  = "rejected_timeout"  // 429: budget spent waiting in the queue
)

// ScheduleRequest is the POST /v1/schedule body. Exactly one of Model
// (a zoo name) and Graph (inline graph JSON, the WriteJSON wire format)
// must be set. Trace opts into a per-request timeline in the response.
type ScheduleRequest struct {
	Model    string          `json:"model,omitempty"`
	Graph    json.RawMessage `json:"graph,omitempty"`
	Stages   int             `json:"stages,omitempty"`
	Class    string          `json:"class,omitempty"`
	Backends []string        `json:"backends,omitempty"`
	Trace    bool            `json:"trace,omitempty"`
}

// CostJSON is a schedule objective on the wire.
type CostJSON struct {
	PeakParamBytes int64 `json:"peak_param_bytes"`
	CrossBytes     int64 `json:"cross_bytes"`
}

func costJSON(c sched.Cost) CostJSON {
	return CostJSON{PeakParamBytes: c.PeakParamBytes, CrossBytes: c.CrossBytes}
}

// OutcomeJSON is per-backend portfolio telemetry on the wire.
type OutcomeJSON struct {
	Backend   string    `json:"backend"`
	Cost      *CostJSON `json:"cost,omitempty"`
	Error     string    `json:"error,omitempty"`
	Truncated bool      `json:"truncated,omitempty"`
	Optimal   bool      `json:"optimal,omitempty"`
	Winner    bool      `json:"winner,omitempty"`
	ElapsedMS float64   `json:"elapsed_ms"`
}

func outcomesJSON(outs []solver.Outcome) []OutcomeJSON {
	res := make([]OutcomeJSON, len(outs))
	for i, o := range outs {
		res[i] = OutcomeJSON{
			Backend:   o.Backend,
			Truncated: o.Info.Truncated,
			Optimal:   o.Info.OptimalityProven,
			Winner:    o.Winner,
			ElapsedMS: durMS(o.Elapsed),
		}
		if o.Err != nil {
			res[i].Error = o.Err.Error()
		} else {
			c := costJSON(o.Cost)
			res[i].Cost = &c
		}
	}
	return res
}

// ScheduleResponse is the POST /v1/schedule result: a deployment-ready
// stage assignment plus solver telemetry. Truncated is the honesty flag —
// true means the budget expired mid-search and Stage is the best incumbent
// found, not a full-effort result. Trace is present only when the request
// set "trace": true.
type ScheduleResponse struct {
	Graph     string   `json:"graph"`
	Nodes     int      `json:"nodes"`
	Stages    int      `json:"stages"`
	Class     string   `json:"class"`
	Backend   string   `json:"backend"`
	Stage     []int    `json:"stage"`
	Cost      CostJSON `json:"cost"`
	Truncated bool     `json:"truncated"`
	CacheHit  bool     `json:"cache_hit"`
	// SpeculativeHit marks a cache hit served from an entry the
	// speculative warmer stored ahead of demand.
	SpeculativeHit bool          `json:"speculative_hit,omitempty"`
	ElapsedMS      float64       `json:"elapsed_ms"`
	Outcomes       []OutcomeJSON `json:"outcomes,omitempty"`
	Trace          *TraceJSON    `json:"trace,omitempty"`
}

// TraceJSON is one request's structured timeline: queue wait, the cache
// consult, the solve window, and each raced backend placed on it. The
// same measurements feed the latency histograms on /metrics, so a trace
// can never disagree with the aggregate view.
type TraceJSON struct {
	// QueueWaitMS is the time spent waiting for admission.
	QueueWaitMS float64 `json:"queue_wait_ms"`
	// Cache is the per-class memo consult: "hit", "miss", or "bypass"
	// (the request overrode the portfolio, skipping the cache).
	Cache string `json:"cache"`
	// SolveMS is the solve window (cache lookup + race when it missed).
	SolveMS float64 `json:"solve_ms"`
	// TotalMS is the whole request, admission wait included; this exact
	// value is what the request-duration histogram observed.
	TotalMS float64 `json:"total_ms"`
	// Backends is the per-backend timeline of the race this request ran;
	// empty on cache hits (no race ran).
	Backends []TraceBackendJSON `json:"backends,omitempty"`
}

// TraceBackendJSON places one raced backend on the request timeline.
// Offsets are relative to the start of the solve window.
type TraceBackendJSON struct {
	Backend string `json:"backend"`
	// StartMS/FinishMS bound the backend's run within the solve window.
	StartMS  float64 `json:"start_ms"`
	FinishMS float64 `json:"finish_ms"`
	// Outcome is "winner", "ok" (valid schedule, lost), "cancelled"
	// (lost the race before finishing) or "error".
	Outcome string `json:"outcome"`
	// Truncated marks a budget-cut incumbent.
	Truncated bool   `json:"truncated,omitempty"`
	Error     string `json:"error,omitempty"`
}

// traceJSON assembles the response timeline from the same measurements
// the histograms observed.
func traceJSON(queueWait, solve, total time.Duration, cache string, hit bool, outs []solver.Outcome) *TraceJSON {
	tr := &TraceJSON{
		QueueWaitMS: durMS(queueWait),
		Cache:       cache,
		SolveMS:     durMS(solve),
		TotalMS:     durMS(total),
	}
	if hit {
		return tr // a hit runs no race; the timeline is just the lookup
	}
	for _, o := range outs {
		b := TraceBackendJSON{
			Backend:   o.Backend,
			StartMS:   durMS(o.Started),
			FinishMS:  durMS(o.Started + o.Elapsed),
			Truncated: o.Info.Truncated,
		}
		switch {
		case o.Winner:
			b.Outcome = "winner"
		case o.Err == nil:
			b.Outcome = "ok"
		case errors.Is(o.Err, context.Canceled), errors.Is(o.Err, context.DeadlineExceeded):
			b.Outcome = "cancelled"
		default:
			b.Outcome = "error"
			b.Error = o.Err.Error()
		}
		tr.Backends = append(tr.Backends, b)
	}
	return tr
}

// BatchRequest is the POST /v1/batch body: many graphs through one
// backend's fingerprint cache with a bounded worker pool.
type BatchRequest struct {
	Models  []string          `json:"models,omitempty"`
	Graphs  []json.RawMessage `json:"graphs,omitempty"`
	Stages  int               `json:"stages,omitempty"`
	Class   string            `json:"class,omitempty"`
	Backend string            `json:"backend,omitempty"`
	Jobs    int               `json:"jobs,omitempty"`
}

// BatchItemJSON is one graph's outcome within a batch response. Truncated
// is the same honesty flag as on /v1/schedule: the budget cut this item's
// solve and Stage is an incumbent.
type BatchItemJSON struct {
	Index     int       `json:"index"`
	Graph     string    `json:"graph"`
	Stage     []int     `json:"stage,omitempty"`
	Cost      *CostJSON `json:"cost,omitempty"`
	Error     string    `json:"error,omitempty"`
	CacheHit  bool      `json:"cache_hit"`
	Truncated bool      `json:"truncated,omitempty"`
	ElapsedMS float64   `json:"elapsed_ms"`
}

// batchItemJSON converts one batch solve result to its wire form.
func batchItemJSON(index int, res solver.BatchResult) BatchItemJSON {
	item := BatchItemJSON{
		Index:     index,
		Graph:     res.Graph.Name,
		CacheHit:  res.CacheHit,
		Truncated: res.Truncated,
		ElapsedMS: durMS(res.Elapsed),
	}
	if res.Err != nil {
		item.Error = res.Err.Error()
	} else {
		item.Stage = res.Schedule.Stage
		c := costJSON(res.Cost)
		item.Cost = &c
	}
	return item
}

// BatchResponse is the POST /v1/batch result, items in input order.
type BatchResponse struct {
	Class     string          `json:"class"`
	Backend   string          `json:"backend"`
	Stages    int             `json:"stages"`
	Count     int             `json:"count"`
	Errors    int             `json:"errors"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Items     []BatchItemJSON `json:"items"`
}

// ErrorResponse is every non-2xx body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// BackendsResponse is the GET /v1/backends result.
type BackendsResponse struct {
	Backends []string                   `json:"backends"`
	Models   []string                   `json:"models"`
	Classes  map[string]ClassPolicyJSON `json:"classes"`
}

// ClassPolicyJSON is a class policy on the wire.
type ClassPolicyJSON struct {
	BudgetMS      float64  `json:"budget_ms"`
	PatienceMS    float64  `json:"patience_ms,omitempty"`
	Backends      []string `json:"backends"`
	MaxConcurrent int      `json:"max_concurrent"`
	MaxQueue      int      `json:"max_queue"`
	Warm          bool     `json:"warm"`
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// retryAfterBudgetCap bounds the Retry-After hint to this many class
// budgets regardless of queue depth.
const retryAfterBudgetCap = 4

// writeJSON is the one writer of JSON responses. It encodes v compact,
// plus a newline, into a pooled buffer before anything goes out, then
// sends the status line with Content-Length and the body in one Write.
// A value that fails to encode becomes a 500 with an ErrorResponse.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer releaseBody(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		code = http.StatusInternalServerError
		buf.Reset()
		json.NewEncoder(buf).Encode(ErrorResponse{Error: "encode response: " + err.Error()})
	}
	writeSized(w, code, buf.Bytes())
}

// writeSized sends a complete response body with its Content-Length, so
// it goes out in one piece and never chunked.
func writeSized(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// methodNotAllowed refuses a request whose method the endpoint does not
// serve: 405 with the Allow header RFC 9110 requires on it.
func methodNotAllowed(w http.ResponseWriter, allowed ...string) {
	w.Header().Set("Allow", strings.Join(allowed, ", "))
	writeError(w, http.StatusMethodNotAllowed, "%s only", strings.Join(allowed, " or "))
}

// writeRejected maps an admission failure to 429 with a Retry-After hint
// derived from the rejection cause and the queue state, not a flat class
// budget. One admission slot frees roughly every Budget/MaxConcurrent;
// a queue-full rejection must outwait the whole backlog plus its own
// slot, while a queue-timeout rejection already waited one full budget,
// so only the work still queued ahead of a fresh arrival bounds the next
// attempt. The two causes therefore advertise different hints (seconds,
// rounded up, floor 1 — the header's unit). The hint is capped at a few
// class budgets: the backlog estimate is a worst case that assumes every
// queued request burns its full budget, so on a deep queue the linear
// extrapolation quotes minutes that honest clients would actually sit
// out, long after the queue has really drained.
func writeRejected(w http.ResponseWriter, st *classState, err error) {
	policy := st.policy
	perSlot := policy.Budget.Seconds() / float64(policy.MaxConcurrent)
	backlog := float64(st.adm.queued())
	var wait float64
	if errors.Is(err, errQueueTimeout) {
		wait = perSlot * backlog
	} else {
		wait = perSlot * (backlog + 1)
	}
	if ceiling := retryAfterBudgetCap * policy.Budget.Seconds(); wait > ceiling {
		wait = ceiling
	}
	retry := int(math.Ceil(wait))
	if retry < 1 {
		retry = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	writeError(w, http.StatusTooManyRequests, "%s", err.Error())
}

// reject answers an admission failure: the request is observed under its
// rejection cause and refused with 429.
func (s *Server) reject(w http.ResponseWriter, class Class, st *classState, arrival time.Time, err error) {
	outcome := outcomeRejectedCapacity
	if errors.Is(err, errQueueTimeout) {
		outcome = outcomeRejectedTimeout
	}
	s.observeRequest(class, outcome, arrival)
	writeRejected(w, st, err)
}

// writeDecodeError maps a body read or decode failure to its status: an
// oversized body (http.MaxBytesReader tripped) is 413 Request Entity Too
// Large, anything else is a plain 400.
func writeDecodeError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge,
			"request body exceeds the %d-byte limit", tooBig.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, "decode request: %v", err)
}

// requestGraph is the graph a request names, as the handlers use it: the
// name and node count the checks and the response read, and the
// instance the engine looks up by fingerprint. That is the shared zoo
// graph of a by-name request, or an inline document, which Graph builds
// only when something needs the graph itself.
type requestGraph struct {
	name  string
	nodes int
	solver.Instance
}

// resolveGraph picks a request's graph: a zoo model by name, which is a
// lookup of the shared graph (404 when unknown), or the inline document
// the body decoder already checked (400 when it was malformed or empty).
// in is nil when the request carried no inline graph.
func resolveGraph(model string, in *inlineGraph) (requestGraph, int, error) {
	switch {
	case model != "" && in != nil:
		return requestGraph{}, http.StatusBadRequest, errors.New("set model or graph, not both")
	case model != "":
		g, err := models.Load(model)
		if err != nil {
			return requestGraph{}, http.StatusNotFound, err
		}
		return requestGraph{g.Name, g.NumNodes(), g}, 0, nil
	case in != nil:
		if in.err != nil {
			return requestGraph{}, http.StatusBadRequest, in.err
		}
		var rg requestGraph
		if in.doc != nil {
			rg = requestGraph{in.doc.Name(), in.doc.NumNodes(), in.doc}
		} else {
			rg = requestGraph{in.g.Name, in.g.NumNodes(), in.g}
		}
		if rg.nodes == 0 {
			return requestGraph{}, http.StatusBadRequest, errors.New("graph has no nodes")
		}
		return rg, 0, nil
	default:
		return requestGraph{}, http.StatusBadRequest, errors.New("one of model or graph is required")
	}
}

// stages validates a requested stage count (0 means the server default).
func (s *Server) stages(requested int) (int, error) {
	if requested == 0 {
		return s.cfg.Stages, nil
	}
	if requested < 1 || requested > sched.MaxStages {
		return 0, fmt.Errorf("stages %d outside [1,%d]", requested, sched.MaxStages)
	}
	return requested, nil
}

// validateStagesForGraph rejects pipelines longer than the graph: a stage
// per Edge TPU with no node to run is a client error, and letting it
// through would hand backends a shape they never contract to handle.
func validateStagesForGraph(numStages int, g requestGraph) error {
	if numStages > g.nodes {
		return fmt.Errorf("stages %d exceeds graph %q's %d nodes (a pipeline cannot have more stages than nodes)",
			numStages, g.name, g.nodes)
	}
	return nil
}

// observeRequest records one class-resolved request on the duration
// histogram and returns the measured total, so the caller's trace reports
// the exact observed value.
func (s *Server) observeRequest(class Class, outcome string, arrival time.Time) time.Duration {
	total := time.Since(arrival)
	s.reqSeconds.With(string(class), outcome).Observe(total.Seconds())
	return total
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	arrival := time.Now()
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	body, err := s.readBody(w, r)
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	defer releaseBody(body)
	req, inline, err := decodeSchedule(body.Bytes())
	defer inline.release()
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	class, st, err := s.class(req.Class, ClassInteractive)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%s", err.Error())
		return
	}
	numStages, err := s.stages(req.Stages)
	if err != nil {
		s.observeRequest(class, outcomeInvalid, arrival)
		writeError(w, http.StatusBadRequest, "%s", err.Error())
		return
	}
	g, code, err := resolveGraph(req.Model, inline)
	if err != nil {
		s.observeRequest(class, outcomeInvalid, arrival)
		writeError(w, code, "%s", err.Error())
		return
	}
	if err := validateStagesForGraph(numStages, g); err != nil {
		s.observeRequest(class, outcomeInvalid, arrival)
		writeError(w, http.StatusBadRequest, "%s", err.Error())
		return
	}
	var override []solver.Scheduler
	if len(req.Backends) > 0 {
		if override, err = solver.Resolve(req.Backends...); err != nil {
			s.observeRequest(class, outcomeInvalid, arrival)
			writeError(w, http.StatusBadRequest, "%s", err.Error())
			return
		}
	}

	// Speculation's popularity tap: every class-resolved valid request is
	// demand, whether or not it ends up admitted. It runs before the
	// forward decision on purpose: a replica counts the requests it relays
	// to their owner, so when that owner dies the survivor has already
	// warmed into its own class memo the keys its share made hot. A
	// pinned portfolio bypasses the class memo, so it is not demand for it.
	// The tracker keeps a hot key's graph to warm it from, so the tap
	// builds an inline document.
	if st.spec != nil && override == nil {
		st.spec.ObserveRequest(g.Graph(), numStages)
	}

	// Fleet routing: a request whose graph hashes to another replica is
	// proxied to its home shard (so that shard's cache and speculation see
	// all of the key's traffic) before consuming local admission. Already-
	// forwarded requests always solve locally — one hop, no loops — as do
	// ad-hoc portfolio overrides (no shared cache to concentrate).
	if s.cluster != nil && override == nil && !isForwarded(r) {
		if target, ok := s.cluster.node.ForwardTarget(g.Fingerprint()); ok {
			if s.relaySchedule(w, r, target, body.Bytes(), class, st.policy.Budget, arrival) {
				return
			}
			// Relay failed; fall through to the local solve.
		} else if target != "" {
			s.cluster.localUnhealthy.Add(1) // the owner is suspect
		}
	}

	// The solve context is bound to the client connection, so abandoned
	// requests cancel their backends.
	out, err := s.run(r.Context(), class, st, g.Instance, numStages, override)
	if errors.Is(err, errOverCapacity) || errors.Is(err, errQueueTimeout) {
		s.reject(w, class, st, arrival, err)
		return
	}
	if err != nil {
		// A budget/disconnect cut with no schedule at all is a timeout,
		// not a client error: retrying (with a calmer class) can succeed.
		// A backend that panicked is this server's fault, not the request's.
		code, outcome := http.StatusUnprocessableEntity, outcomeError
		var panicked *solver.PanicError
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			code, outcome = http.StatusGatewayTimeout, outcomeTimeout
		} else if errors.As(err, &panicked) {
			code = http.StatusInternalServerError
		}
		s.observeRequest(class, outcome, arrival)
		writeError(w, code, "no backend produced a schedule: %v", err)
		return
	}
	// Requests that overrode the portfolio are never recorded for the
	// learning loop: their winner is not the class portfolio's judgment,
	// and recording the online agent's own output would make the loop
	// imitate itself.
	if override == nil && s.onlineMgr != nil {
		s.onlineMgr.Record(out.sample)
	}
	total := s.observeRequest(class, outcomeOK, arrival)
	resp := ScheduleResponse{
		Graph:          g.name,
		Nodes:          g.nodes,
		Stages:         numStages,
		Class:          string(class),
		Backend:        out.res.Backend,
		Stage:          out.res.Schedule.Stage,
		Cost:           costJSON(out.res.Cost),
		Truncated:      out.res.Truncated,
		CacheHit:       out.hit,
		SpeculativeHit: out.specHit,
		ElapsedMS:      durMS(out.solve),
		Outcomes:       outcomesJSON(out.res.Outcomes),
	}
	if req.Trace {
		cacheConsult := "miss"
		switch {
		case override != nil:
			cacheConsult = "bypass" // ad-hoc portfolios skip the class memo
		case out.hit:
			cacheConsult = "hit"
		}
		resp.Trace = traceJSON(out.queueWait, out.solve, total, cacheConsult, out.hit, out.res.Outcomes)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	arrival := time.Now()
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	body, err := s.readBody(w, r)
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	req, inline, err := decodeBatch(body.Bytes())
	releaseBody(body) // the decoded graphs keep no reference to it
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	class, st, err := s.class(req.Class, ClassBatch)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%s", err.Error())
		return
	}
	numStages, err := s.stages(req.Stages)
	if err != nil {
		s.observeRequest(class, outcomeInvalid, arrival)
		writeError(w, http.StatusBadRequest, "%s", err.Error())
		return
	}
	if len(req.Models)+len(inline) == 0 {
		s.observeRequest(class, outcomeInvalid, arrival)
		writeError(w, http.StatusBadRequest, "empty batch: set models and/or graphs")
		return
	}
	graphs := make([]*graph.Graph, 0, len(req.Models)+len(inline))
	for _, name := range req.Models {
		g, code, err := resolveGraph(name, nil)
		if err == nil {
			err = validateStagesForGraph(numStages, g)
			code = http.StatusBadRequest
		}
		if err != nil {
			s.observeRequest(class, outcomeInvalid, arrival)
			writeError(w, code, "models[%q]: %s", name, err.Error())
			return
		}
		graphs = append(graphs, g.Graph())
	}
	for i := range inline {
		g, code, err := resolveGraph("", &inline[i])
		if err == nil {
			err = validateStagesForGraph(numStages, g)
			code = http.StatusBadRequest
		}
		if err != nil {
			s.observeRequest(class, outcomeInvalid, arrival)
			writeError(w, code, "graphs[%d]: %s", i, err.Error())
			return
		}
		graphs = append(graphs, g.Graph())
	}
	backendName := req.Backend
	if backendName == "" {
		backendName = "heur"
	}
	engine, err := s.batchCaches.For(backendName)
	if err != nil {
		s.observeRequest(class, outcomeInvalid, arrival)
		writeError(w, http.StatusBadRequest, "%s", err.Error())
		return
	}
	jobs := req.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > 32 {
		jobs = 32
	}

	// One admission slot covers the whole batch; the class budget bounds
	// the end-to-end run.
	release, _, err := s.admit(r.Context(), class, st)
	if err != nil {
		s.reject(w, class, st, arrival, err)
		return
	}
	defer release()

	ctx, cancel := context.WithTimeout(r.Context(), st.policy.Budget)
	defer cancel()
	start := time.Now()
	// A batch is solved where it was admitted, in fleet mode too: every
	// backend returns the same schedule for a graph on any replica.
	results, _ := solver.Batch(ctx, engine, graphs, numStages, jobs)
	items := make([]BatchItemJSON, len(results))
	for i, res := range results {
		items[i] = batchItemJSON(i, res)
	}
	s.observeRequest(class, outcomeOK, arrival)

	resp := BatchResponse{
		Class:     string(class),
		Backend:   backendName,
		Stages:    numStages,
		Count:     len(items),
		ElapsedMS: durMS(time.Since(start)),
		Items:     items,
	}
	for _, item := range items {
		if item.Error != "" {
			resp.Errors++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBackends(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	resp := BackendsResponse{
		Backends: solver.Names(),
		Models:   models.Names(),
		Classes:  make(map[string]ClassPolicyJSON, len(s.classes)),
	}
	for class, st := range s.classes {
		resp.Classes[string(class)] = ClassPolicyJSON{
			BudgetMS:      durMS(st.policy.Budget),
			PatienceMS:    durMS(st.policy.Patience),
			Backends:      st.engine.Backends(),
			MaxConcurrent: st.policy.MaxConcurrent,
			MaxQueue:      st.policy.MaxQueue,
			Warm:          st.policy.Warm,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
