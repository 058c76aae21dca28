// Package respect is the public API of the RESPECT reproduction: a
// reinforcement-learning scheduler for DNN computational graphs on
// pipelined Coral Edge TPUs (Yin et al., DAC 2023), together with every
// substrate the paper's evaluation depends on — a model zoo with the
// twelve ImageNet computational graphs, a synthetic-DAG training sampler,
// exact (branch-and-bound and ILP) and heuristic baselines, an Edge TPU
// pipeline simulator, and a deployment flow (quantization, sub-model
// images).
//
// Quick start:
//
//	g, _ := respect.LoadModel("ResNet152")
//	agent, _ := respect.Train(respect.TrainConfig{Iterations: 300})
//	s, _ := agent.Schedule(g, 6)
//	rep, _ := respect.Simulate(g, s, respect.CoralHW())
//	fmt.Println(rep.Throughput(), "inferences/s")
//
// The internal packages remain importable within this module for
// fine-grained control; this package re-exports the surface a downstream
// scheduler user needs.
package respect

import (
	"context"
	"net"
	"time"

	"respect/internal/compiler"
	"respect/internal/embed"
	"respect/internal/graph"
	"respect/internal/models"
	"respect/internal/pipeline"
	"respect/internal/ptrnet"
	"respect/internal/rl"
	"respect/internal/sched"
	"respect/internal/serve"
	"respect/internal/solver"
	"respect/internal/synth"
	"respect/internal/tpu"
)

// Core graph and scheduling types.
type (
	// Graph is a DNN computational DAG.
	Graph = graph.Graph
	// Node is one operator in a Graph.
	Node = graph.Node
	// Stats is the (|V|, deg, depth) triple of Table I.
	Stats = graph.Stats
	// Schedule assigns nodes to pipeline stages.
	Schedule = sched.Schedule
	// Cost is the (peak parameter memory, cross-stage traffic) objective.
	Cost = sched.Cost
	// HW describes the Edge TPU pipeline platform.
	HW = tpu.HW
	// SimReport is a pipeline simulation outcome.
	SimReport = tpu.Report
	// TrainConfig configures RL training (see rl.Config for every knob).
	TrainConfig = rl.Config
)

// NewGraph returns an empty graph to build with AddNode/AddEdge/Build.
func NewGraph(name string) *Graph { return graph.New(name) }

// LoadModel returns one of the twelve evaluated ImageNet computational
// graphs by name (e.g. "ResNet152", "InceptionResNetv2"). The graph is
// shared, read-only: every call for a name returns the same built graph,
// so Clone it before changing it.
func LoadModel(name string) (*Graph, error) { return models.Load(name) }

// ModelNames lists the available model-zoo entries.
func ModelNames() []string { return models.Names() }

// MergeGraphs builds the disjoint union of several computational graphs
// so that co-deployed models can be scheduled jointly onto one pipeline
// (the paper's multi-model input mode).
func MergeGraphs(gs ...*Graph) (*Graph, error) { return graph.Merge(gs...) }

// SampleSyntheticGraphs draws n random training-style DAGs (|V| = numNodes,
// max in-degree maxDegree), as used for RESPECT's data-independent
// training.
func SampleSyntheticGraphs(n, numNodes, maxDegree int, seed int64) ([]*Graph, error) {
	cfg := synth.DefaultConfig(maxDegree)
	cfg.NumNodes = numNodes
	s, err := synth.NewSampler(cfg, seed)
	if err != nil {
		return nil, err
	}
	return s.SampleBatch(n), nil
}

// Agent is a trained RESPECT scheduler.
type Agent struct {
	model *ptrnet.Model
	ecfg  embed.Config
}

// Train trains a RESPECT agent from scratch on synthetic graphs. Zero
// config fields take scaled-down defaults that train in seconds on a CPU;
// the paper-scale setup (hidden 256, 1M graphs, batch 128) is reachable by
// setting the fields explicitly.
func Train(cfg TrainConfig) (*Agent, error) { return TrainWithProgress(cfg, nil) }

// TrainWithProgress is Train with a per-iteration callback
// (iteration, mean sampled reward).
func TrainWithProgress(cfg TrainConfig, progress func(iter int, meanReward float64)) (*Agent, error) {
	tr, err := rl.NewTrainer(cfg)
	if err != nil {
		return nil, err
	}
	err = tr.Train(func(st rl.IterStats) {
		if progress != nil {
			progress(st.Iter, st.MeanReward)
		}
	})
	if err != nil {
		return nil, err
	}
	return &Agent{model: tr.Model, ecfg: tr.EmbedCfg}, nil
}

// Schedule runs RESPECT inference on g for an n-stage pipeline: the agent
// decodes an order of g's sibling classes (the node groups the Edge TPU
// runs in one stage), ρ maps it to stages and every node takes its
// class's stage. The result is deployment-ready by construction.
func (a *Agent) Schedule(g *Graph, numStages int) (Schedule, error) {
	return rl.Schedule(a.model, a.ecfg, g, numStages)
}

// Save writes the agent's weights to path.
func (a *Agent) Save(path string) error { return a.model.SaveFile(path) }

// LoadAgent reads an agent previously written with Save.
func LoadAgent(path string) (*Agent, error) {
	m, err := ptrnet.LoadFile(path)
	if err != nil {
		return nil, err
	}
	ecfg := embed.Default()
	if err := solver.CheckAgent(m, ecfg); err != nil { // refuses a file trained for another embedding
		return nil, err
	}
	return &Agent{model: m, ecfg: ecfg}, nil
}

// ScheduleExact computes the provably optimal (peak parameter memory)
// deployable schedule with the branch-and-bound exact solver: the optimum
// is over the schedules the Edge TPU can run (pipeline-monotone, all
// children of a node in one stage), so the result needs no PostProcess and
// no backend's deployed schedule has a lower peak. optimal reports whether
// the search completed within timeout. It is a thin wrapper over
// ScheduleExactCtx with a timeout-derived context. A numStages below 1 is
// solved as 1: the result is a one-stage schedule, and optimal is about
// that.
func ScheduleExact(g *Graph, numStages int, timeout time.Duration) (s Schedule, cost Cost, optimal bool) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return ScheduleExactCtx(ctx, g, numStages)
}

// ScheduleExactCtx is the registry's "exact" backend under a context:
// cancellation or an expired deadline truncates the search and returns the
// best incumbent (optimal false), so the caller always gets a valid
// deployable schedule. With optimal true, cost.PeakParamBytes is proven
// minimal over the deployable schedules of g. A numStages below 1 is
// solved as 1.
func ScheduleExactCtx(ctx context.Context, g *Graph, numStages int) (s Schedule, cost Cost, optimal bool) {
	// The exact family never returns an error: it hands back its incumbent.
	s, info, _ := solver.ScheduleInfo(ctx, solver.Exact(), g, numStages)
	return s, s.Evaluate(g), info.OptimalityProven
}

// ScheduleCompiler returns the Edge TPU compiler baseline's partition
// (parameter-balanced greedy, hardware-repaired) — a thin wrapper over the
// registry's "compiler" backend. It panics when numStages is below 1.
func ScheduleCompiler(g *Graph, numStages int) Schedule {
	s, err := ScheduleWith(context.Background(), "compiler", g, numStages)
	if err != nil {
		// The compiler heuristic cannot fail on a built graph with an
		// un-cancelled context and at least one stage.
		panic("respect: compiler backend: " + err.Error())
	}
	return s
}

// CompileFull runs the complete compiler-emulation flow (quantization,
// partition, tiling, allocation, serialization) and returns its schedule
// and measured compile time.
func CompileFull(g *Graph, numStages int) (Schedule, time.Duration, error) {
	res, err := compiler.Compile(g, numStages, compiler.DefaultOptions())
	if err != nil {
		return Schedule{}, 0, err
	}
	return res.Schedule, res.CompileTime, nil
}

// PostProcess applies the paper's deterministic deployment repair
// (dependency push-forward + children-same-stage unification) to any
// schedule.
func PostProcess(g *Graph, s Schedule) Schedule { return sched.PostProcess(g, s) }

// CoralHW returns the default Coral Edge TPU pipeline platform model.
func CoralHW() HW { return tpu.Coral() }

// Simulate runs the pipelined Edge TPU simulator for one inference
// stream; the schedule must be deployment-ready (see PostProcess).
func Simulate(g *Graph, s Schedule, hw HW) (SimReport, error) {
	return tpu.Simulate(g, s, hw)
}

// MeasureInference mirrors the paper's protocol (10 rounds × 1000
// inferences), returning the mean per-inference latency.
func MeasureInference(g *Graph, s Schedule, hw HW) (time.Duration, error) {
	return tpu.RunBenchmark(g, s, hw, 10, 1000)
}

// ExecutionResult is the discrete-event pipeline run outcome (transient
// behaviour, queue occupancy, stage utilization).
type ExecutionResult = pipeline.Result

// ExecutePipeline runs n inferences through the deployed pipeline with the
// event-driven executor (the host runtime of the paper's Figure 2),
// exposing fill/drain transients and per-stage utilization that the
// closed-form Simulate cannot.
func ExecutePipeline(g *Graph, s Schedule, hw HW, n, queueDepth int) (*ExecutionResult, error) {
	return pipeline.Run(g, s, hw, pipeline.Config{Inferences: n, QueueDepth: queueDepth})
}

// ---- Scheduler backends and concurrent engines ----

// Backend is a named, context-aware scheduler (see internal/solver): any
// value implementing it can be registered and then raced in portfolios or
// fanned out over batches alongside the built-in backends.
type Backend = solver.Scheduler

// BackendOutcome is per-backend portfolio telemetry.
type BackendOutcome = solver.Outcome

// PortfolioResult is the aggregate outcome of SchedulePortfolio.
type PortfolioResult = solver.PortfolioResult

// BatchResult is one graph's outcome within ScheduleBatch.
type BatchResult = solver.BatchResult

// NewBackend wraps fn as a registrable Backend.
func NewBackend(name string, fn func(ctx context.Context, g *Graph, numStages int) (Schedule, error)) Backend {
	return solver.NewFunc(name, fn)
}

// Backends lists every registered scheduler backend, sorted. The built-in
// set (compiler, exact, exact-ilp-grade, heur) is always present;
// rl and rl-sampled appear once an Agent registers them. The paper's
// timing baselines are not backends: see CompileFull for the compiler's.
func Backends() []string { return solver.Names() }

// RegisterBackend adds a custom backend to the registry; names must be
// unique.
func RegisterBackend(b Backend) error { return solver.Register(b) }

// LookupBackend resolves a registered backend by name.
func LookupBackend(name string) (Backend, error) { return solver.Lookup(name) }

// RegisterBackends publishes the agent's two decode modes ("rl", greedy,
// and "rl-sampled", the best of the greedy rollout and 16 stochastic
// decodes) in the backend registry, overwriting any previously
// registered agent, and resets the schedule cache so stale results from
// the previous agent cannot surface.
func (a *Agent) RegisterBackends() error {
	if err := solver.Default().BindAgent(a.model, a.ecfg); err != nil {
		return err
	}
	ResetScheduleCache()
	return nil
}

// SchedulePortfolio races the named backends on one graph under ctx and
// returns the cheapest deployable schedule with per-backend telemetry.
// Anytime backends (exact, exact-ilp-grade) return their incumbents when
// the context deadline fires, so the call completes within the caller's
// budget. The backends run in order on the caller's goroutine; any not
// started 1 ms into the race get goroutines of their own, and a lone
// backend is simply called. Losing backends are cancelled, and no
// goroutine outlives the call.
func SchedulePortfolio(ctx context.Context, g *Graph, numStages int, backendNames ...string) (PortfolioResult, error) {
	backends, err := solver.Resolve(backendNames...)
	if err != nil {
		return PortfolioResult{}, err
	}
	return solver.Portfolio(ctx, backends, g, numStages)
}

// ScheduleBatch schedules many graphs with one named backend through a
// bounded pool of jobs workers. Results are in input order for any jobs
// value. Schedules are memoized by graph fingerprint: structurally
// repeated graphs (multi-model serving, sweeps) hit an O(1) cache, with
// per-item hits reported in BatchResult.CacheHit.
func ScheduleBatch(ctx context.Context, graphs []*Graph, numStages int, backendName string, jobs int) ([]BatchResult, error) {
	e, err := scheduleCaches.For(backendName)
	if err != nil {
		return nil, err
	}
	return solver.Batch(ctx, e, graphs, numStages, jobs)
}

// ScheduleWith runs one named backend on one graph, through the same
// schedule cache as ScheduleBatch.
func ScheduleWith(ctx context.Context, backendName string, g *Graph, numStages int) (Schedule, error) {
	e, err := scheduleCaches.For(backendName)
	if err != nil {
		return Schedule{}, err
	}
	res, _, err := e.Run(ctx, g, numStages)
	return res.Schedule, err
}

// scheduleCaches holds one fingerprint-keyed LRU per backend name. The
// inner scheduler is resolved from the registry at call time, so replacing
// a backend (agent reload) takes effect immediately.
var scheduleCaches = solver.NewCacheSet(solver.Default(), 256)

// ScheduleCacheStats reports cumulative schedule-cache hits and misses for
// one backend name.
func ScheduleCacheStats(backendName string) (hits, misses uint64) {
	return scheduleCaches.Stats(backendName)
}

// ResetScheduleCache drops every cached schedule (all backends).
func ResetScheduleCache() { scheduleCaches.Reset() }

// ---- Scheduling service ----

// Serving types (see internal/serve for the full API): a Server exposes
// POST /v1/schedule, POST /v1/batch, GET /v1/backends and GET /v1/stats,
// with per-request-class latency budgets and admission control.
type (
	// ServeConfig configures the scheduling service.
	ServeConfig = serve.Config
	// ServeClass names a request service class.
	ServeClass = serve.Class
	// ServeClassPolicy is one class's budget / portfolio / admission policy.
	ServeClassPolicy = serve.ClassPolicy
	// Server is the HTTP scheduling service (an http.Handler).
	Server = serve.Server
	// ServerStats is a point-in-time service telemetry snapshot.
	ServerStats = serve.Stats
)

// Default request classes of the scheduling service.
const (
	ServeInteractive = serve.ClassInteractive
	ServeBatchClass  = serve.ClassBatch
	ServeBestEffort  = serve.ClassBestEffort
)

// NewServer builds the HTTP scheduling service. Mount it on any mux or
// http.Server; call WarmUp to pre-schedule the model zoo into the caches.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// Serve runs the scheduling service on addr until ctx is cancelled, then
// shuts down gracefully (in-flight requests drain, the concurrent
// model-zoo warm-up is stopped and awaited). For a custom lifecycle
// (picking the bound port, readiness probes) use NewServer with your own
// listener and Server.Run, as cmd/respect-serve does.
func Serve(ctx context.Context, addr string, cfg ServeConfig) error {
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return srv.Run(ctx, ln)
}
