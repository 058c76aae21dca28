// ImageNet pipeline study: reproduce the paper's headline scenario —
// large residual networks on 4/5/6-stage pipelined Edge TPUs — showing
// how memory-aware scheduling pays off as per-stage parameter pressure
// exceeds the 8 MiB on-chip cache, and how the gains grow with stage
// count (paper Figure 4's trend).
package main

import (
	"fmt"
	"log"
	"time"

	"respect"
)

func main() {
	log.SetFlags(0)

	agent, err := respect.Train(respect.TrainConfig{
		Hidden: 48, Iterations: 200, BatchSize: 16, LR: 2e-3, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}

	hw := respect.CoralHW()
	for _, name := range []string{"ResNet101v2", "ResNet152", "InceptionResNetv2"} {
		g, err := respect.LoadModel(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s (%.1f MiB parameters)\n", name, float64(g.TotalParamBytes())/(1<<20))
		fmt.Printf("%6s  %14s  %14s  %14s  %8s  %10s\n", "stages", "compiler", "RESPECT", "exact", "speedup", "mJ/inf(RL)")
		for _, stages := range []int{4, 5, 6} {
			comp := respect.ScheduleCompiler(g, stages)
			rlS, err := agent.Schedule(g, stages)
			if err != nil {
				log.Fatal(err)
			}
			exS, _, _ := respect.ScheduleExact(g, stages, 30*time.Second)

			lc, err := respect.MeasureInference(g, comp, hw)
			if err != nil {
				log.Fatal(err)
			}
			lr, err := respect.MeasureInference(g, rlS, hw)
			if err != nil {
				log.Fatal(err)
			}
			le, err := respect.MeasureInference(g, exS, hw)
			if err != nil {
				log.Fatal(err)
			}
			repRL, err := respect.Simulate(g, rlS, hw)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%6d  %14v  %14v  %14v  %7.2fx  %10.2f\n",
				stages, lc, lr, le, float64(lc)/float64(lr), repRL.EnergyPerInference*1e3)
		}
	}
}
