package main

import (
	"context"
	"math"
	"time"

	"respect"
	"respect/internal/models"
	"respect/internal/rl"
)

// paper.*: the paper's headline comparison on the Table I models with a
// 4-stage pipeline: solve time of RL inference against the exact solver
// and against the full compiler flow (Fig. 3), RL's parameter-memory gap
// to the optimum, and the simulated inference speed-up of the RL schedule
// over the compiler's (Fig. 5). Each solver runs once per model; the
// geometric mean over the twelve models smooths single-run noise. The
// fixture is barely trained, so the quality numbers describe this
// pipeline, not the paper's agent.
func init() {
	register("paper", func(r *recorder) error {
		hw := respect.CoralHW()
		var rlMS, exactMS, compMS, gap, speedup []float64
		timed := func(name string, fn func()) float64 {
			start := time.Now()
			fn()
			end := time.Now()
			r.addSpan(r.parent, name, start, end, 1)
			return ms(end.Sub(start))
		}
		for _, name := range models.TableINames() {
			g, err := respect.LoadModel(name)
			if err != nil {
				return err
			}
			var rlSched, compSched, exactSched respect.Schedule
			rlMS = append(rlMS, timed("paper.rl", func() { rlSched, err = rl.Schedule(r.in.model, r.in.ecfg, g, 4) }))
			if err != nil {
				return err
			}
			exactMS = append(exactMS, timed("paper.exact", func() {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				exactSched, _, _ = respect.ScheduleExactCtx(ctx, g, 4)
			}))
			compMS = append(compMS, timed("paper.compiler_full", func() { compSched, _, err = respect.CompileFull(g, 4) }))
			if err != nil {
				return err
			}
			rlPeak := float64(rlSched.Evaluate(g).PeakParamBytes)
			optPeak := float64(respect.PostProcess(g, exactSched).Evaluate(g).PeakParamBytes)
			gap = append(gap, (rlPeak-optPeak)/optPeak*100)
			rlSim, err := respect.Simulate(g, rlSched, hw)
			if err != nil {
				return err
			}
			compSim, err := respect.Simulate(g, compSched, hw)
			if err != nil {
				return err
			}
			speedup = append(speedup, float64(compSim.Bottleneck)/float64(rlSim.Bottleneck))
		}
		r.metric("paper.rl_ms_geomean", geomean(rlMS))
		r.metric("paper.exact_ms_geomean", geomean(exactMS))
		r.metric("paper.compiler_full_ms_geomean", geomean(compMS))
		r.metric("paper.rl_vs_exact_time_ratio", geomean(rlMS)/geomean(exactMS))
		r.metric("paper.rl_vs_compiler_time_ratio", geomean(rlMS)/geomean(compMS))
		r.metric("paper.rl_gap_to_optimal_pct", arithMean(gap))
		r.metric("paper.sim_speedup_vs_compiler", geomean(speedup))
		return nil
	})
}

func geomean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

func arithMean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
