// Command respect-bench regenerates every table and figure of the paper's
// evaluation on this reproduction's substrates (Edge TPU simulator,
// compiler emulation, exact solvers):
//
//	-exp table1    Table I  — model statistics
//	-exp fig3      Figure 3 — schedule solving time (RL vs compiler vs ILP)
//	-exp fig4      Figure 4 — pipelined on-chip inference runtime
//	-exp fig5      Figure 5 — gap-to-optimal parameter caching
//	-exp all       everything above
//
// Any other -exp value is a usage error (exit status 2). The figures need
// an agent: a trained one can be supplied with -agent; otherwise one is
// trained in-process (-train-iters controls how long). To race registry
// backends on a model, use respect-schedule -portfolio.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"respect/internal/bench"
	"respect/internal/embed"
	"respect/internal/models"
	"respect/internal/ptrnet"
	"respect/internal/solver"
	"respect/internal/tpu"
)

// experiments names every -exp value.
const experiments = "table1|fig3|fig4|fig5|all"

func main() {
	log.SetFlags(0)
	log.SetPrefix("respect-bench: ")

	var (
		exp        = flag.String("exp", "all", "experiment: "+experiments)
		agentPath  = flag.String("agent", "", "trained agent weights (otherwise trains in-process)")
		trainIters = flag.Int("train-iters", 200, "in-process training iterations when -agent is absent")
		ilpBudget  = flag.Duration("ilp-budget", 0, "per-instance budget for the generic MILP column of fig3 (0 skips it; the paper-faithful setting is 60s+)")
		effort     = flag.Int("compiler-effort", 256, "compiler emulation effort")
		quickSet   = flag.Bool("quick", false, "restrict fig3/fig4/fig5 to three small models")
		csvDir     = flag.String("csv", "", "also write fig3/fig4/fig5 rows as CSV files into this directory")
		seed       = flag.Int64("seed", 1, "seed for in-process training")
	)
	flag.Parse()
	switch *exp {
	case "table1", "fig3", "fig4", "fig5", "all":
	default:
		fmt.Fprintf(os.Stderr, "respect-bench: unknown -exp %q (want %s)\n", *exp, experiments)
		os.Exit(2)
	}

	var agent *ptrnet.Model
	ecfg := embed.Default()
	if *exp != "table1" {
		if *agentPath != "" {
			m, err := ptrnet.LoadFile(*agentPath)
			if err != nil {
				log.Fatal(err)
			}
			if err := solver.CheckAgent(m, ecfg); err != nil { // refuses a file trained for another embedding
				log.Fatal(err)
			}
			agent = m
			fmt.Printf("loaded agent from %s\n", *agentPath)
		} else {
			fmt.Printf("training agent in-process (%d iterations)...\n", *trainIters)
			tr, err := bench.TrainQuick(*seed, *trainIters)
			if err != nil {
				log.Fatal(err)
			}
			agent = tr.Model
			fmt.Printf("held-out greedy imitation reward: %.4f\n", tr.EvalGreedy(tr.Model))
		}
	}

	names := models.TableINames()
	fig5names := models.Figure5Names()
	if *quickSet {
		names = []string{"Xception", "ResNet50", "DenseNet121"}
		fig5names = names
	}

	run := func(name string, f func() error) {
		if *exp != name && *exp != "all" {
			return
		}
		fmt.Printf("\n===== %s =====\n", name)
		start := time.Now()
		if err := f(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("(%s finished in %v)\n", name, time.Since(start))
	}

	run("table1", func() error {
		rows := bench.TableI()
		var cells [][]string
		for _, r := range rows {
			cells = append(cells, []string{r.Model,
				fmt.Sprint(r.Stats.V), fmt.Sprint(r.Stats.Deg), fmt.Sprint(r.Stats.Depth),
				fmt.Sprint(r.Match)})
		}
		fmt.Print(bench.RenderTable([]string{"model", "|V|", "deg(V)", "depth", "matches paper"}, cells))
		return nil
	})

	run("fig3", func() error {
		rows, err := bench.Fig3(agent, ecfg, bench.Fig3Config{
			Models: names, ILPBudget: *ilpBudget, CompilerEffort: *effort,
		})
		if err != nil {
			return err
		}
		bench.SortRows(rows)
		var cells [][]string
		for _, r := range rows {
			ilpCell := "skipped"
			if r.ILP > 0 {
				ilpCell = r.ILP.Round(time.Millisecond).String()
				if !r.ILPOptimal {
					ilpCell += " (timeout)"
				}
			}
			rlCell := r.RL.Round(time.Microsecond).String()
			if r.OneOrder {
				rlCell += " (1 order)"
			}
			cells = append(cells, []string{r.Model, fmt.Sprint(r.V), fmt.Sprint(r.Stages),
				rlCell,
				r.Compiler.Round(time.Millisecond).String(),
				r.CombExact.Round(time.Microsecond).String(),
				ilpCell,
				fmt.Sprintf("%.1fx", r.SpeedupVsCompiler),
				speedupCell(r.SpeedupVsILP, r.ILPOptimal, r.ILP > 0),
			})
		}
		fmt.Print(bench.RenderTable([]string{"model", "|V|", "stages", "RL", "compiler", "exact-BB", "exact-ILP", "RL-vs-compiler", "RL-vs-ILP"}, cells))
		fmt.Println("(1 order): the model's sibling-class quotient has one order, so RL deploys it without running the network")
		fmt.Println()
		fmt.Print(bench.SpeedupChart(rows, false))
		if *ilpBudget > 0 {
			fmt.Println()
			fmt.Print(bench.SpeedupChart(rows, true))
		}
		if *csvDir != "" {
			var c [][]string
			for _, r := range rows {
				c = append(c, []string{r.Model, strconv.Itoa(r.V), strconv.Itoa(r.Stages),
					strconv.FormatInt(r.RL.Microseconds(), 10),
					strconv.FormatInt(r.Compiler.Microseconds(), 10),
					strconv.FormatInt(r.CombExact.Microseconds(), 10),
					strconv.FormatInt(r.ILP.Microseconds(), 10),
					strconv.FormatBool(r.ILPOptimal),
					strconv.FormatBool(r.OneOrder)})
			}
			if err := writeCSV(*csvDir, "fig3.csv",
				[]string{"model", "V", "stages", "rl_us", "compiler_us", "exact_bb_us", "exact_ilp_us", "ilp_optimal", "one_order"}, c); err != nil {
				return err
			}
		}
		return nil
	})

	run("fig4", func() error {
		rows, err := bench.Fig4(agent, ecfg, names, nil, tpu.Coral())
		if err != nil {
			return err
		}
		var cells [][]string
		for _, r := range rows {
			cells = append(cells, []string{r.Model, fmt.Sprint(r.Stages),
				r.CompilerLatency.Round(time.Microsecond).String(),
				fmt.Sprintf("%.3f", r.RelExact),
				fmt.Sprintf("%.3f", r.RelRL),
				fmt.Sprintf("%.2fx", 1/r.RelRL),
			})
		}
		fmt.Print(bench.RenderTable([]string{"model", "stages", "compiler latency", "exact (rel)", "RESPECT (rel)", "RESPECT speedup"}, cells))
		for _, ns := range bench.Stages {
			fmt.Println()
			fmt.Print(bench.Fig4Chart(rows, ns))
		}
		if *csvDir != "" {
			var c [][]string
			for _, r := range rows {
				c = append(c, []string{r.Model, strconv.Itoa(r.Stages),
					strconv.FormatInt(r.CompilerLatency.Microseconds(), 10),
					fmt.Sprintf("%.5f", r.RelExact), fmt.Sprintf("%.5f", r.RelRL)})
			}
			if err := writeCSV(*csvDir, "fig4.csv",
				[]string{"model", "stages", "compiler_latency_us", "rel_exact", "rel_respect"}, c); err != nil {
				return err
			}
		}
		return nil
	})

	run("fig5", func() error {
		rows, err := bench.Fig5(agent, ecfg, fig5names, nil)
		if err != nil {
			return err
		}
		var cells [][]string
		for _, r := range rows {
			cells = append(cells, []string{r.Model, fmt.Sprint(r.Stages),
				fmt.Sprintf("%.3f", r.OptimalMiB), fmt.Sprintf("%.3f", r.DeployableMiB),
				fmt.Sprintf("%.3f", r.RespectMiB),
				fmt.Sprintf("%.2f%%", r.GapPct), fmt.Sprintf("%.2f%%", r.DeployGapPct)})
		}
		fmt.Print(bench.RenderTable([]string{"model", "stages", "optimal MiB", "deployable-opt MiB", "RESPECT MiB", "gap", "deploy gap"}, cells))
		avg := bench.Fig5Averages(rows)
		fmt.Printf("\naverage gap-to-optimal: 4-stage %.2f%%, 5-stage %.2f%%, 6-stage %.2f%% (paper: 2.26%% / 2.74%% / 6.31%%)\n",
			avg[4], avg[5], avg[6])
		davg := bench.Fig5DeployAverages(rows)
		fmt.Printf("average gap to the deployable optimum (children rule): 4-stage %.2f%%, 5-stage %.2f%%, 6-stage %.2f%%\n",
			davg[4], davg[5], davg[6])
		for _, ns := range bench.Stages {
			fmt.Println()
			fmt.Print(bench.Fig5Chart(rows, ns))
		}
		if *csvDir != "" {
			var c [][]string
			for _, r := range rows {
				c = append(c, []string{r.Model, strconv.Itoa(r.Stages),
					fmt.Sprintf("%.5f", r.OptimalMiB), fmt.Sprintf("%.5f", r.RespectMiB),
					fmt.Sprintf("%.3f", r.GapPct)})
			}
			if err := writeCSV(*csvDir, "fig5.csv",
				[]string{"model", "stages", "optimal_mib", "respect_mib", "gap_pct"}, c); err != nil {
				return err
			}
		}
		return nil
	})
}

func writeCSV(dir, name string, header []string, rows [][]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(bench.RenderCSV(header, rows)), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func speedupCell(v float64, optimal, ran bool) string {
	if !ran {
		return "-"
	}
	if optimal {
		return fmt.Sprintf("%.0fx", v)
	}
	return fmt.Sprintf(">=%.0fx", v)
}
