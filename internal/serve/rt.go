package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"time"

	"respect/internal/graph"
	"respect/internal/rt"
)

// RTConfig enables and tunes the periodic-task (real-time) mode: clients
// register (model, period, deadline, class) streams on POST /v1/periodic
// and a dispatcher releases one scheduling job per stream per period into
// a pluggable queue discipline ahead of the class admission controller.
// Admission of a stream is a schedulability test — utilization bound plus
// response-time analysis — fed by observed per-solve latency percentiles
// from the serving histograms (see internal/rt).
type RTConfig struct {
	// Enabled mounts the /v1/periodic endpoints and starts the dispatcher
	// with Run. Off, the serving path carries no periodic-mode cost.
	Enabled bool
	// Policy is the queue discipline: "fifo", "rm" or "edf" (default edf).
	Policy string
	// UtilBound overrides the admission utilization bound. Zero keeps the
	// policy default (EDF 1.0, RM/FIFO the Liu & Layland bound) plus the
	// response-time analysis; setting it is an operator override that
	// admits exactly up to the bound, overload included.
	UtilBound float64
}

// rtCostQuantile is the quantile of a class's observed request latency
// that stands in for a stream's cost when its registration pins no cost_ms.
const rtCostQuantile = 0.95

// rtPayload is the opaque stream payload carried through internal/rt: the
// resolved graph and the serving class the stream's jobs run under.
type rtPayload struct {
	g      *graph.Graph
	stages int
	class  Class
	st     *classState
}

// initRT validates cfg.RT, builds the dispatcher and registers the rt
// metric families. Called by New after initMetrics (the cost estimator
// reads the request-latency histograms); a no-op when the mode is off.
func (s *Server) initRT() error {
	rc := s.cfg.RT
	if !rc.Enabled {
		return nil
	}
	s.rtTardiness = s.reg.Histogram("respect_rt_tardiness_seconds",
		"Periodic job tardiness (seconds past the absolute deadline; 0 for on-time jobs), all streams.",
		s.cfg.LatencyBuckets)
	s.rtMisses = s.reg.CounterVec("respect_rt_deadline_misses_total",
		"Periodic jobs that missed their deadline (finished late, superseded, or shed), per stream and policy.",
		"stream", "policy")
	s.rtReleases = s.reg.CounterVec("respect_rt_releases_total",
		"Periodic jobs released, per stream.", "stream")
	s.rtUtil = s.reg.GaugeVec("respect_rt_stream_utilization",
		"Admitted utilization (cost estimate / period) per stream.", "stream")

	d, err := rt.New(rt.Config{
		Policy:    rt.Policy(rc.Policy),
		UtilBound: rc.UtilBound,
		Run:       s.runRTJob,
		Estimate:  s.rtEstimate,
		OnComplete: func(res rt.JobResult) {
			s.rtTardiness.Observe(res.Tardiness.Seconds())
			s.recordRTOutcome(res)
		},
		Logf: s.logf,
	})
	if err != nil {
		return err
	}
	s.rtDisp = d
	s.reg.GaugeFunc("respect_rt_queued_jobs",
		"Periodic jobs released but not yet started.",
		func() float64 { return float64(s.rtDisp.Queued()) })
	return nil
}

// runRT starts the periodic dispatcher under ctx; the returned stop is
// idempotent and a no-op when the mode is off.
func (s *Server) runRT(ctx context.Context) (stop func(), err error) {
	if s.rtDisp == nil {
		return func() {}, nil
	}
	return s.rtDisp.Start(ctx)
}

// runRTJob executes one released periodic job through the same admitted
// solve path as one-shot traffic, so periodic work obeys the class's
// concurrency limits and feeds the same series. Cache hits make
// steady-state periodic jobs nearly free.
func (s *Server) runRTJob(ctx context.Context, j rt.Job) error {
	p := j.Stream.Payload.(*rtPayload)
	out, err := s.run(ctx, p.class, p.st, p.g, p.stages, nil)
	if err == nil && s.onlineMgr != nil {
		// Park the sample; the dispatcher's OnComplete joins it with the
		// deadline outcome and records it.
		s.rtSolves.put(j.Seq, out.sample)
	}
	return err
}

// rtEstimate feeds the schedulability test: the rtCostQuantile quantile of
// the stream class's observed ok-request latency, falling back to the
// class budget (the worst admissible case) before any traffic has been
// observed. Registrations that pin cost_ms never reach here.
func (s *Server) rtEstimate(stream *rt.Stream) time.Duration {
	p := stream.Payload.(*rtPayload)
	if secs := s.reqSeconds.With(string(p.class), outcomeOK).Quantile(rtCostQuantile); secs > 0 {
		return time.Duration(secs * float64(time.Second))
	}
	return p.st.policy.Budget
}

// PeriodicRequest is the POST /v1/periodic body: one periodic stream
// registration. Exactly one of Model and Graph names the work, exactly as
// on /v1/schedule; PeriodMS is required; DeadlineMS defaults to the
// period; CostMS pins the schedulability cost estimate (otherwise the
// observed class latency quantile is used).
type PeriodicRequest struct {
	Name       string          `json:"name"`
	Model      string          `json:"model,omitempty"`
	Graph      json.RawMessage `json:"graph,omitempty"`
	Stages     int             `json:"stages,omitempty"`
	Class      string          `json:"class,omitempty"`
	PeriodMS   float64         `json:"period_ms"`
	DeadlineMS float64         `json:"deadline_ms,omitempty"`
	CostMS     float64         `json:"cost_ms,omitempty"`
}

// PeriodicResponse is the POST /v1/periodic result: the admitted stream
// snapshot plus the dispatcher's policy and post-admission utilization.
type PeriodicResponse struct {
	Stream      rt.StreamStats `json:"stream"`
	Class       string         `json:"class"`
	Policy      rt.Policy      `json:"policy"`
	Utilization float64        `json:"utilization"`
	UtilBound   float64        `json:"util_bound"`
}

// handlePeriodic serves GET (list) and POST (register) on /v1/periodic.
func (s *Server) handlePeriodic(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.rtDisp.Stats())
	case http.MethodPost:
		s.handlePeriodicRegister(w, r)
	default:
		methodNotAllowed(w, http.MethodGet, http.MethodPost)
	}
}

// handlePeriodicRegister admits one periodic stream: resolve the graph
// and class like /v1/schedule, then run the schedulability test. A
// schedulability rejection (including duplicates) is 409 Conflict — the
// request is well-formed, the current stream set just cannot absorb it.
func (s *Server) handlePeriodicRegister(w http.ResponseWriter, r *http.Request) {
	body, err := s.readBody(w, r)
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	req, inline, err := decodePeriodic(body.Bytes())
	releaseBody(body) // the decoded graph keeps no reference to it
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
		writeError(w, http.StatusBadRequest, "%s", err.Error())
		return
	}
	g, code, err := resolveGraph(req.Model, inline)
	if err != nil {
		writeError(w, code, "%s", err.Error())
		return
	}
	if err := validateStagesForGraph(numStages, g); err != nil {
		writeError(w, http.StatusBadRequest, "%s", err.Error())
		return
	}
	if req.PeriodMS <= 0 {
		writeError(w, http.StatusBadRequest, "period_ms %v must be positive", req.PeriodMS)
		return
	}
	if strings.Contains(req.Name, "/") {
		// DELETE /v1/periodic/{name} could never address it.
		writeError(w, http.StatusBadRequest, "stream name %q must not contain '/'", req.Name)
		return
	}
	spec := rt.StreamSpec{
		Name:     req.Name,
		Period:   time.Duration(req.PeriodMS * float64(time.Millisecond)),
		Deadline: time.Duration(req.DeadlineMS * float64(time.Millisecond)),
		Cost:     time.Duration(req.CostMS * float64(time.Millisecond)),
		Payload:  &rtPayload{g: g.Graph(), stages: numStages, class: class, st: st},
	}
	stream, err := s.rtDisp.Register(spec)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, rt.ErrNotSchedulable) || errors.Is(err, rt.ErrStreamExists) {
			code = http.StatusConflict
		}
		writeError(w, code, "%s", err.Error())
		return
	}
	// Per-stream series are function-backed on the stream's own atomics,
	// so /metrics and /v1/stats can never disagree. Re-registering a name
	// (delete, then register) rebinds the series to the new stream.
	policy := string(s.rtDisp.Policy())
	s.rtMisses.Func(func() float64 { return float64(stream.Misses()) }, stream.Name, policy)
	s.rtReleases.Func(func() float64 { return float64(stream.Releases()) }, stream.Name)
	s.rtUtil.Func(stream.Utilization, stream.Name)

	stats := s.rtDisp.Stats()
	resp := PeriodicResponse{
		Class:       string(class),
		Policy:      stats.Policy,
		Utilization: stats.Utilization,
		UtilBound:   stats.UtilBound,
	}
	for _, ss := range stats.Streams {
		if ss.Name == stream.Name {
			resp.Stream = ss
		}
	}
	writeJSON(w, http.StatusCreated, resp)
}

// handlePeriodicItem serves DELETE /v1/periodic/{name}: unregister one
// stream and cancel its pending release.
func (s *Server) handlePeriodicItem(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		methodNotAllowed(w, http.MethodDelete)
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/v1/periodic/")
	if name == "" || strings.Contains(name, "/") {
		writeError(w, http.StatusBadRequest, "stream name required: DELETE /v1/periodic/{name}")
		return
	}
	if !s.rtDisp.Remove(name) {
		writeError(w, http.StatusNotFound, "unknown stream %q", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"removed": name})
}
