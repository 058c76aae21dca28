// Command respect-serve runs RESPECT's HTTP scheduling service: graph in,
// deployment-ready Edge TPU pipeline schedule out, with per-request-class
// latency budgets, admission control and a zoo-warmed schedule cache.
//
// Examples:
//
//	respect-serve -addr :8080
//	respect-serve -addr :8080 -agent respect.gob -interactive-backends heur,rl
//	respect-serve -addr 127.0.0.1:0 -warm none -batch-budget 10s
//	respect-serve -addr :8080 -speculate -speculate-watermark 0.6 -speculate-budget 8
//	respect-serve -addr :8080 -rt -rt-policy rm
//	respect-serve -addr :8080 -advertise http://10.0.0.1:8080 \
//	    -peers http://10.0.0.1:8080,http://10.0.0.2:8080,http://10.0.0.3:8080
//
//	curl -s localhost:8080/v1/schedule -d '{"model":"ResNet152","stages":6}'
//	curl -s localhost:8080/v1/periodic -d '{"name":"cam","model":"MobileNet","period_ms":100}'
//	curl -s localhost:8080/v1/backends
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"respect/internal/embed"
	"respect/internal/models"
	"respect/internal/ptrnet"
	"respect/internal/serve"
	"respect/internal/solver"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("respect-serve: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// splitNames splits a comma-separated list, trimming whitespace and
// dropping empty entries.
func splitNames(list string) []string {
	var out []string
	for _, p := range strings.Split(list, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseBuckets parses -metrics-buckets: comma-separated positive seconds
// ("" keeps the server defaults).
func parseBuckets(list string) ([]float64, error) {
	var out []float64
	for _, p := range splitNames(list) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("-metrics-buckets: bad bound %q: %w", p, err)
		}
		if v <= 0 || math.IsNaN(v) {
			return nil, fmt.Errorf("-metrics-buckets: bound %v must be positive", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// run is the whole binary behind a cancellable context and an injected
// stdout, so the smoke tests can drive startup and shutdown in-process.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("respect-serve", flag.ContinueOnError)
	// Per-class flag defaults come from serve.DefaultClasses so the
	// policy table has one source of truth.
	defaults := serve.DefaultClasses()
	di, db, de := defaults[serve.ClassInteractive], defaults[serve.ClassBatch], defaults[serve.ClassBestEffort]
	var (
		addr        = fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		stages      = fs.Int("stages", 4, "default pipeline stages for requests that omit stages")
		cacheSize   = fs.Int("cache", 512, "per-class schedule cache capacity")
		warm        = fs.String("warm", "zoo", `warm-up set: "zoo" (every model), "none", or comma-separated zoo names`)
		agentPath   = fs.String("agent", "", "trained agent weights; registers the rl backends before serving")
		interBudget = fs.Duration("interactive-budget", di.Budget, "interactive class latency budget")
		batchBudget = fs.Duration("batch-budget", db.Budget, "batch class latency budget")
		beBudget    = fs.Duration("best-effort-budget", de.Budget, "best-effort class latency budget")
		interBack   = fs.String("interactive-backends", "", "override the interactive portfolio (comma-separated backend names)")
		batchBack   = fs.String("batch-backends", "", "override the batch portfolio")
		beBack      = fs.String("best-effort-backends", "", "override the best-effort portfolio")
		interConc   = fs.Int("interactive-concurrency", di.MaxConcurrent, "interactive class concurrent-request limit")
		batchConc   = fs.Int("batch-concurrency", db.MaxConcurrent, "batch class concurrent-request limit")
		beConc      = fs.Int("best-effort-concurrency", de.MaxConcurrent, "best-effort class concurrent-request limit")
		queueDepth  = fs.Int("queue-depth", 0, "override every class's admission queue depth (0 keeps per-class defaults)")
		metricsOn   = fs.Bool("metrics", true, "serve Prometheus metrics on GET /metrics")
		buckets     = fs.String("metrics-buckets", "", "latency histogram bucket bounds in seconds, comma-separated (empty keeps the defaults, 5ms..10s)")
		speculateOn = fs.Bool("speculate", false, "speculatively warm the per-class caches from popularity + eviction signals")
		specMark    = fs.Float64("speculate-watermark", 0, "admission occupancy in (0,1] at which speculation yields (0 keeps the default, 0.5)")
		specBudget  = fs.Int("speculate-budget", 0, "max speculative solves per scan pass (0 keeps the default, 4)")
		peersList   = fs.String("peers", "", "comma-separated replica URLs; enables fleet mode (consistent-hash sharding, request forwarding)")
		advertise   = fs.String("advertise", "", "this replica's URL as its peers reach it (required with -peers)")
		onlineOn    = fs.Bool("online", false, "enable the online learning loop: solved requests feed per-class replay buffers, background rounds train candidates, shadow-evaluated winners hot-reload into the class portfolios")
		onlineIvl   = fs.Duration("online-interval", 0, "online training-round period (0 keeps the default, 30s)")
		onlineMgn   = fs.Float64("online-margin", 0, "relative held-out improvement a candidate must show to be promoted (0 keeps the default, 0.02)")
		onlineBuf   = fs.Int("online-buffer", 0, "per-class replay-buffer capacity (0 keeps the default, 4096)")
		rtOn        = fs.Bool("rt", false, "enable the periodic-task mode: register (model, period, deadline) streams on POST /v1/periodic")
		rtPolicy    = fs.String("rt-policy", "edf", `periodic queue discipline: "fifo", "rm" or "edf"`)
		rtUtilBound = fs.Float64("rt-util-bound", 0, "override the schedulability utilization bound (0 keeps the policy default and the response-time analysis)")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060); empty disables profiling")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h printed usage; that is success, not a failure
		}
		return err
	}

	var agent *ptrnet.Model
	if *agentPath != "" {
		m, err := ptrnet.LoadFile(*agentPath)
		if err != nil {
			return err
		}
		if err := solver.Default().BindAgent(m, embed.Default()); err != nil {
			return fmt.Errorf("-agent %s: %w", *agentPath, err)
		}
		agent = m
	}

	classes := defaults
	for class, override := range map[serve.Class]struct {
		budget   time.Duration
		backends string
		conc     int
	}{
		serve.ClassInteractive: {*interBudget, *interBack, *interConc},
		serve.ClassBatch:       {*batchBudget, *batchBack, *batchConc},
		serve.ClassBestEffort:  {*beBudget, *beBack, *beConc},
	} {
		p := classes[class]
		p.Budget = override.budget
		p.MaxConcurrent = override.conc
		if override.backends != "" {
			p.Backends = splitNames(override.backends)
		}
		if *queueDepth > 0 {
			p.MaxQueue = *queueDepth
		}
		classes[class] = p
	}

	latencyBuckets, err := parseBuckets(*buckets)
	if err != nil {
		return err
	}
	cfg := serve.Config{
		Stages:         *stages,
		CacheSize:      *cacheSize,
		Classes:        classes,
		LatencyBuckets: latencyBuckets,
		DisableMetrics: !*metricsOn,
		Speculation: serve.SpeculationConfig{
			Enabled:   *speculateOn,
			Watermark: *specMark,
			Budget:    *specBudget,
		},
		RT: serve.RTConfig{
			Enabled:   *rtOn,
			Policy:    *rtPolicy,
			UtilBound: *rtUtilBound,
		},
		Online: serve.OnlineConfig{
			Enabled:   *onlineOn,
			Agent:     agent, // the -agent weights seed every class incumbent
			Interval:  *onlineIvl,
			Margin:    *onlineMgn,
			BufferCap: *onlineBuf,
		},
		Cluster: serve.ClusterConfig{
			Advertise: *advertise,
			Peers:     splitNames(*peersList),
		},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(out, format+"\n", args...)
		},
	}
	switch *warm {
	case "zoo":
		// nil WarmModels warms the whole zoo.
	case "none":
		cfg.WarmModels = []string{}
	default:
		cfg.WarmModels = splitNames(*warm)
	}

	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Which form of the pointer network's inner loops this replica runs:
	// without AVX2 an rl solve costs about twice the CPU.
	fmt.Fprintf(out, "ptrnet kernels: %s\n", ptrnet.KernelPath())
	fmt.Fprintf(out, "listening on http://%s (%d backends, %d zoo models)\n",
		ln.Addr(), len(solver.Names()), len(models.Names()))

	if *pprofAddr != "" {
		// The profiler gets its own listener and mux: pprof handlers must
		// never be exposed on the serving address, and the DefaultServeMux
		// registration net/http/pprof performs at import time only reaches
		// this private mux.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Handler: mux}
		go psrv.Serve(pln)
		defer psrv.Close()
		fmt.Fprintf(out, "pprof on http://%s/debug/pprof/\n", pln.Addr())
	}

	// Run owns the listener: it warms the caches concurrently with early
	// traffic and drains in-flight requests on ctx cancellation.
	return srv.Run(ctx, ln)
}
