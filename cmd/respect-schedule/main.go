// Command respect-schedule schedules DNN computational graphs onto an
// n-stage Edge TPU pipeline with any registered scheduler backend, a
// portfolio race of several backends, or a parallel batch over many
// graphs; it reports the memory / communication objective and simulates
// on-chip inference.
//
// Examples:
//
//	respect-schedule -model ResNet152 -stages 6 -backend exact
//	respect-schedule -model Xception -stages 4 -backend rl -agent respect.gob
//	respect-schedule -model ResNet152 -stages 6 -portfolio heur,exact,compiler -timeout 10s
//	respect-schedule -model ResNet50,Xception,DenseNet121 -stages 4 -backend heur -jobs 4
//	respect-schedule -list-backends
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"respect/internal/bench"
	"respect/internal/embed"
	"respect/internal/graph"
	"respect/internal/models"
	"respect/internal/ptrnet"
	"respect/internal/sched"
	"respect/internal/solver"
	"respect/internal/tpu"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("respect-schedule: ")

	var (
		modelNames = flag.String("model", "", "comma-separated model-zoo graphs (see -list-backends output for models)")
		graphPath  = flag.String("graph", "", "path to a graph JSON (alternative to -model)")
		stages     = flag.Int("stages", 4, "pipeline stages")
		backend    = flag.String("backend", "", "scheduler backend (see -list-backends)")
		portfolio  = flag.String("portfolio", "", "comma-separated backends to race; the cheapest schedule wins")
		jobs       = flag.Int("jobs", 1, "parallel workers when scheduling several graphs")
		agentPath  = flag.String("agent", "", "trained agent weights (enables the rl backends)")
		timeout    = flag.Duration("timeout", 60*time.Second, "scheduling deadline (context); anytime backends return incumbents")
		dotPath    = flag.String("dot", "", "write a stage-colored Graphviz rendering here (single graph only)")
		simulate   = flag.Bool("sim", true, "simulate pipelined inference on the Coral platform model")
		listOnly   = flag.Bool("list-backends", false, "list registered backends and exit")
	)
	flag.Parse()

	if *agentPath != "" {
		m, err := ptrnet.LoadFile(*agentPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := solver.Default().BindAgent(m, embed.Default()); err != nil {
			log.Fatalf("-agent %s: %v", *agentPath, err)
		}
	}

	if *listOnly {
		fmt.Printf("backends: %s\n", strings.Join(solver.Names(), ", "))
		fmt.Printf("models:   %s\n", strings.Join(models.Names(), ", "))
		fmt.Printf("ptrnet kernels: %s\n", ptrnet.KernelPath())
		return
	}

	graphs, err := loadGraphs(*modelNames, *graphPath)
	if err != nil {
		log.Fatal(err)
	}

	name := *backend
	if name == "" && *portfolio == "" {
		name = "exact"
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// Every solve shape goes through one engine: a single backend is a
	// portfolio of one.
	names := []string{name}
	if *portfolio != "" {
		names = splitNames(*portfolio)
	}
	members, err := solver.Resolve(names...)
	if err != nil {
		log.Fatal(err)
	}
	e := solver.NewEngine(members, 256, solver.PortfolioOptions{})
	if len(graphs) == 1 {
		runSingle(ctx, *timeout, e, graphs[0], *stages, *simulate, *dotPath)
	} else {
		runBatch(ctx, e, graphs, *stages, *jobs)
	}
}

// splitNames splits a comma-separated list, trimming whitespace around
// each entry.
func splitNames(list string) []string {
	parts := strings.Split(list, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func loadGraphs(modelList, path string) ([]*graph.Graph, error) {
	switch {
	case modelList != "" && path != "":
		return nil, fmt.Errorf("use -model or -graph, not both")
	case modelList != "":
		var gs []*graph.Graph
		for _, name := range splitNames(modelList) {
			g, err := models.Load(name)
			if err != nil {
				return nil, err
			}
			gs = append(gs, g)
		}
		return gs, nil
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		g, err := graph.ReadJSON(f)
		if err != nil {
			return nil, err
		}
		return []*graph.Graph{g}, nil
	default:
		return nil, fmt.Errorf("one of -model or -graph is required (models: %v)", models.Names())
	}
}

func describe(g *graph.Graph) {
	st := g.Stats()
	fmt.Printf("graph %s: |V|=%d deg(V)=%d depth=%d params=%.2f MiB\n",
		g.Name, st.V, st.Deg, st.Depth, float64(g.TotalParamBytes())/(1<<20))
}

func report(g *graph.Graph, s sched.Schedule, label string, solve time.Duration, simulate bool, dotPath string) {
	cost := s.Evaluate(g)
	fmt.Printf("scheduler %s: solve time %v\n", label, solve)
	fmt.Printf("objective: %v\n", cost)
	for k, m := range s.StageParamBytes(g) {
		fmt.Printf("  stage %d: %8.3f MiB params\n", k, float64(m)/(1<<20))
	}
	if simulate {
		rep, err := tpu.Simulate(g, s, tpu.Coral())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("simulated pipeline: bottleneck %v, fill latency %v, %.1f inf/s, %.3f mJ/inf\n",
			rep.Bottleneck, rep.Latency, rep.Throughput(), rep.EnergyPerInference*1e3)
	}
	if dotPath != "" {
		if err := os.WriteFile(dotPath, []byte(g.DOT(s.Stage)), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", dotPath)
	}
}

// deadlineHit reports whether the solve was cut short by the -timeout
// budget. It checks elapsed time besides ctx.Err() because a solver that
// observes its deadline returns concurrently with (and sometimes slightly
// before) the context timer firing.
func deadlineHit(ctx context.Context, budget, elapsed time.Duration) bool {
	return ctx.Err() != nil || elapsed >= budget
}

// truncatedCaption marks a budget-cut incumbent wherever one is printed.
const truncatedCaption = " (budget hit; incumbent, not proven optimal)"

func runSingle(ctx context.Context, budget time.Duration, e *solver.Engine, g *graph.Graph, stages int, simulate bool, dotPath string) {
	describe(g)
	start := time.Now()
	res, _, err := e.Run(ctx, g, stages)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	label := res.Backend
	if len(res.Outcomes) > 1 {
		var cells [][]string
		for _, o := range res.Outcomes {
			status := o.Cost.String()
			if o.Err != nil {
				status = "error: " + o.Err.Error()
			}
			mark := ""
			if o.Winner {
				mark = "*"
			}
			cells = append(cells, []string{mark, o.Backend, status, o.Elapsed.Round(time.Microsecond).String()})
		}
		fmt.Print(bench.RenderTable([]string{"", "backend", "outcome", "solve time"}, cells))
		fmt.Println()
		label = "portfolio winner " + res.Backend
	}
	optimal := false
	for _, o := range res.Outcomes {
		optimal = optimal || o.Winner && o.Info.OptimalityProven
	}
	switch {
	case res.Truncated:
		// Budget hit (deadline or state cap): the winner handed back an
		// incumbent with no optimality proof.
		label += truncatedCaption
	case optimal:
		label += " (proven optimal peak)"
	case len(res.Outcomes) > 1 && deadlineHit(ctx, budget, elapsed):
		label += " (deadline hit; anytime members returned incumbents)"
	}
	report(g, res.Schedule, label, elapsed, simulate, dotPath)
}

func runBatch(ctx context.Context, e *solver.Engine, graphs []*graph.Graph, stages, jobs int) {
	start := time.Now()
	results, err := solver.Batch(ctx, e, graphs, stages, jobs)
	elapsed := time.Since(start)
	var cells [][]string
	for _, r := range results {
		outcome := r.Cost.String()
		switch {
		case r.Err != nil:
			outcome = "error: " + r.Err.Error()
		case r.Truncated:
			outcome += truncatedCaption
		}
		cached := ""
		if r.CacheHit {
			cached = "hit"
		}
		cells = append(cells, []string{r.Graph.Name, outcome, r.Elapsed.Round(time.Microsecond).String(), cached})
	}
	fmt.Print(bench.RenderTable([]string{"graph", "outcome", "solve time", "cache"}, cells))
	fmt.Printf("\nscheduled %d graphs with %d workers in %v\n", len(graphs), jobs, elapsed)
	failed, cut := 0, 0
	for _, r := range results {
		switch {
		case r.Err == nil:
		case errors.Is(r.Err, context.DeadlineExceeded) || errors.Is(r.Err, context.Canceled):
			cut++
		default:
			failed++
		}
	}
	switch {
	case failed > 0:
		log.Fatalf("%d of %d graphs failed", failed, len(results))
	case cut > 0:
		log.Fatalf("deadline hit: %d of %d graphs were not scheduled", cut, len(results))
	case err != nil:
		// Deadline reached, yet every graph got an (anytime) schedule —
		// informational, not a failure.
		fmt.Printf("note: deadline hit mid-batch (%v); anytime backends returned incumbents\n", err)
	}
}
