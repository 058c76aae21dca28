// Package bench is the experiment harness: for every table and figure in
// the paper's evaluation (Table I, Figures 3-5) plus the ablation studies
// called out in DESIGN.md, it runs the workload, collects the same rows or
// series the paper reports, and renders them as aligned text tables and
// CSV.
package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"respect/internal/compiler"
	"respect/internal/embed"
	"respect/internal/exact"
	"respect/internal/graph"
	"respect/internal/heur"
	"respect/internal/ilp"
	"respect/internal/models"
	"respect/internal/ptrnet"
	"respect/internal/rl"
	"respect/internal/sched"
	"respect/internal/tpu"
)

// Stages evaluated throughout the paper.
var Stages = []int{4, 5, 6}

// TrainQuick trains a RESPECT model with a CPU-friendly scaled-down
// configuration (every knob of the paper's setup is available through
// rl.Config for full-scale runs).
func TrainQuick(seed int64, iterations int) (*rl.Trainer, error) {
	tr, err := rl.NewTrainer(rl.Config{
		Hidden:     48,
		NumNodes:   30,
		Degrees:    []int{2, 3, 4, 5, 6},
		Stages:     4,
		Iterations: iterations,
		BatchSize:  16,
		LR:         2e-3,
		Seed:       seed,
	})
	if err != nil {
		return nil, err
	}
	if err := tr.Train(nil); err != nil {
		return nil, err
	}
	return tr, nil
}

// TableIRow is one model's statistics row.
type TableIRow struct {
	Model string
	Stats graph.Stats
	Match bool // equals the paper's Table I entry
}

// TableI regenerates the paper's Table I.
func TableI() []TableIRow {
	rows := make([]TableIRow, 0, 10)
	for _, name := range models.TableINames() {
		g := models.MustLoad(name)
		st := g.Stats()
		rows = append(rows, TableIRow{Model: name, Stats: st, Match: st == models.TableI[name]})
	}
	return rows
}

// Fig3Row is one (model, stages) point of the solving-time comparison.
type Fig3Row struct {
	Model  string
	V      int
	Stages int
	// RL is the RESPECT inference wall time (embed + pointer decode + ρ +
	// repair).
	RL time.Duration
	// Compiler is the full Edge TPU compiler-emulation wall time.
	Compiler time.Duration
	// ILP is the generic MILP (CPLEX stand-in) wall time, capped at its
	// budget; ILPOptimal reports whether it proved optimality in budget.
	ILP        time.Duration
	ILPOptimal bool
	// CombExact is our specialized combinatorial exact solver's time
	// (reported alongside; far faster than generic constraint solving).
	CombExact time.Duration
	// Speedups of RL over the two baselines (paper's Figure 3 series);
	// where the ILP timed out the value is a lower bound.
	SpeedupVsCompiler float64
	SpeedupVsILP      float64
}

// Fig3Config bounds the experiment cost.
type Fig3Config struct {
	Models []string
	Stages []int
	// ILPBudget caps each generic-MILP solve (0 skips the MILP column
	// entirely — it is by far the most expensive part).
	ILPBudget time.Duration
	// CompilerEffort is passed to the compiler emulation.
	CompilerEffort int
}

// Fig3 regenerates the schedule-solving-time comparison (paper Figure 3).
func Fig3(model *ptrnet.Model, ecfg embed.Config, cfg Fig3Config) ([]Fig3Row, error) {
	if len(cfg.Models) == 0 {
		cfg.Models = models.TableINames()
	}
	if len(cfg.Stages) == 0 {
		cfg.Stages = Stages
	}
	var rows []Fig3Row
	for _, name := range cfg.Models {
		g, err := models.Load(name)
		if err != nil {
			return nil, err
		}
		for _, ns := range cfg.Stages {
			row := Fig3Row{Model: name, V: g.NumNodes(), Stages: ns}

			start := time.Now()
			if _, err := rl.Schedule(model, ecfg, g, ns); err != nil {
				return nil, err
			}
			row.RL = time.Since(start)

			comp, err := compiler.Compile(g, ns, compiler.Options{Effort: cfg.CompilerEffort})
			if err != nil {
				return nil, err
			}
			row.Compiler = comp.CompileTime

			res := solveWithin(60*time.Second, g, ns, exact.Options{TieBreakCross: true, MaxStates: 200_000_000})
			row.CombExact = res.Elapsed

			if cfg.ILPBudget > 0 {
				ilpStart := time.Now()
				ctx, cancel := context.WithTimeout(context.Background(), cfg.ILPBudget)
				ires, ierr := exact.SolveILPCtx(ctx, g, ns, ilp.Options{})
				cancel()
				row.ILP = time.Since(ilpStart)
				row.ILPOptimal = ierr == nil && ires.Optimal
			}

			row.SpeedupVsCompiler = ratio(row.Compiler, row.RL)
			row.SpeedupVsILP = ratio(row.ILP, row.RL)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig4Row is one (model, stages) point of the on-chip runtime comparison,
// normalized to the Edge TPU compiler baseline (= 1.0).
type Fig4Row struct {
	Model  string
	Stages int
	// Per-inference simulated latency, averaged over the paper's
	// measurement protocol (10 rounds × 1000 inferences).
	CompilerLatency time.Duration
	ExactLatency    time.Duration
	RLLatency       time.Duration
	// RelExact and RelRL are normalized to the compiler baseline.
	RelExact float64
	RelRL    float64
}

// Fig4 regenerates the pipelined inference-runtime comparison (paper
// Figure 4) on the Edge TPU simulator.
func Fig4(model *ptrnet.Model, ecfg embed.Config, names []string, stages []int, hw tpu.HW) ([]Fig4Row, error) {
	if len(names) == 0 {
		names = models.TableINames()
	}
	if len(stages) == 0 {
		stages = Stages
	}
	var rows []Fig4Row
	for _, name := range names {
		g, err := models.Load(name)
		if err != nil {
			return nil, err
		}
		for _, ns := range stages {
			comp := sched.PostProcess(g, compilerSchedule(g, ns))
			ex := sched.PostProcess(g, solveWithin(60*time.Second, g, ns, exact.Options{
				TieBreakCross: true, MaxStates: 200_000_000,
			}).Schedule)
			rlSched, err := rl.Schedule(model, ecfg, g, ns)
			if err != nil {
				return nil, err
			}

			row := Fig4Row{Model: name, Stages: ns}
			if row.CompilerLatency, err = tpu.RunBenchmark(g, comp, hw, 10, 1000); err != nil {
				return nil, err
			}
			if row.ExactLatency, err = tpu.RunBenchmark(g, ex, hw, 10, 1000); err != nil {
				return nil, err
			}
			if row.RLLatency, err = tpu.RunBenchmark(g, rlSched, hw, 10, 1000); err != nil {
				return nil, err
			}
			row.RelExact = float64(row.ExactLatency) / float64(row.CompilerLatency)
			row.RelRL = float64(row.RLLatency) / float64(row.CompilerLatency)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// solveWithin is exact.SolveCtx under a wall-clock budget.
func solveWithin(budget time.Duration, g *graph.Graph, ns int, opts exact.Options) exact.Result {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	return exact.SolveCtx(ctx, g, ns, opts)
}

// compilerSchedule is the partition the compiler emulation would produce,
// without paying for its quantization and serialization passes.
func compilerSchedule(g *graph.Graph, ns int) sched.Schedule {
	return heur.GreedyBalanced(g, ns)
}

// Fig5Row is one (model, stages) gap-to-optimal data point. Two optima
// are reported: the monotone lower bound (the paper's ILP objective) and
// the deployable optimum under the children-same-stage hardware rule —
// the tightest bound a post-processed schedule can reach.
type Fig5Row struct {
	Model         string
	Stages        int
	OptimalMiB    float64 // monotone optimum (paper's objective)
	DeployableMiB float64 // optimum under the hardware children rule
	RespectMiB    float64
	GapPct        float64 // vs OptimalMiB (paper's definition)
	DeployGapPct  float64 // vs DeployableMiB
}

// Fig5 regenerates the gap-to-optimal parameter-caching study (paper
// Figure 5) across the twelve evaluation models.
func Fig5(model *ptrnet.Model, ecfg embed.Config, names []string, stages []int) ([]Fig5Row, error) {
	if len(names) == 0 {
		names = models.Figure5Names()
	}
	if len(stages) == 0 {
		stages = Stages
	}
	var rows []Fig5Row
	for _, name := range names {
		g, err := models.Load(name)
		if err != nil {
			return nil, err
		}
		for _, ns := range stages {
			opt := solveWithin(60*time.Second, g, ns, exact.Options{MaxStates: 200_000_000})
			dep := solveWithin(60*time.Second, g, ns, exact.Options{MaxStates: 200_000_000, ChildrenRule: true})
			rlSched, err := rl.Schedule(model, ecfg, g, ns)
			if err != nil {
				return nil, err
			}
			optPeak := float64(opt.Cost.PeakParamBytes) / (1 << 20)
			depPeak := float64(dep.Cost.PeakParamBytes) / (1 << 20)
			gotPeak := float64(rlSched.Evaluate(g).PeakParamBytes) / (1 << 20)
			gap, depGap := 0.0, 0.0
			if optPeak > 0 {
				gap = (gotPeak - optPeak) / optPeak * 100
			}
			if depPeak > 0 {
				depGap = (gotPeak - depPeak) / depPeak * 100
			}
			rows = append(rows, Fig5Row{
				Model: name, Stages: ns,
				OptimalMiB: optPeak, DeployableMiB: depPeak, RespectMiB: gotPeak,
				GapPct: gap, DeployGapPct: depGap,
			})
		}
	}
	return rows, nil
}

// Fig5Averages returns the mean gap per stage count (the paper reports
// 2.26 % / 2.74 % / 6.31 % for 4/5/6 stages).
func Fig5Averages(rows []Fig5Row) map[int]float64 {
	sum := map[int]float64{}
	n := map[int]int{}
	for _, r := range rows {
		sum[r.Stages] += r.GapPct
		n[r.Stages]++
	}
	out := map[int]float64{}
	for k, s := range sum {
		out[k] = s / float64(n[k])
	}
	return out
}

// Fig5DeployAverages returns the mean gap to the deployable optimum per
// stage count.
func Fig5DeployAverages(rows []Fig5Row) map[int]float64 {
	sum := map[int]float64{}
	n := map[int]int{}
	for _, r := range rows {
		sum[r.Stages] += r.DeployGapPct
		n[r.Stages]++
	}
	out := map[int]float64{}
	for k, s := range sum {
		out[k] = s / float64(n[k])
	}
	return out
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// RenderTable renders rows of cells as an aligned text table.
func RenderTable(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	dashes := make([]string, len(header))
	for i := range dashes {
		dashes[i] = strings.Repeat("-", width[i])
	}
	line(dashes)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// RenderCSV renders rows as CSV with a header.
func RenderCSV(header []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString(strings.Join(header, ","))
	b.WriteByte('\n')
	for _, r := range rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// SortRows orders rows by model graph size then stage count (the paper's
// plotting order for Figure 3).
func SortRows(rows []Fig3Row) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].V != rows[j].V {
			return rows[i].V < rows[j].V
		}
		return rows[i].Stages < rows[j].Stages
	})
}
