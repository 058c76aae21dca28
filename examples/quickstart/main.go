// Quickstart: train a small RESPECT agent, schedule ResNet50 onto a
// 4-stage Edge TPU pipeline, and compare it against the commercial
// compiler baseline and the exact optimum on the pipeline simulator.
package main

import (
	"fmt"
	"log"
	"time"

	"respect"
)

func main() {
	log.SetFlags(0)

	// 1. Train an agent on synthetic graphs (the paper's data-independent
	//    setup, scaled down to run in under a minute on a laptop CPU).
	fmt.Println("training RESPECT agent on synthetic DAGs...")
	agent, err := respect.TrainWithProgress(
		respect.TrainConfig{Hidden: 48, Iterations: 150, BatchSize: 16, LR: 2e-3, Seed: 1},
		func(iter int, reward float64) {
			if iter%25 == 0 {
				fmt.Printf("  iter %3d: mean imitation reward %.3f\n", iter, reward)
			}
		})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Load a real ImageNet computational graph from the model zoo.
	g, err := respect.LoadModel("ResNet50")
	if err != nil {
		log.Fatal(err)
	}
	st := g.Stats()
	fmt.Printf("\nResNet50 computational graph: |V|=%d deg=%d depth=%d\n", st.V, st.Deg, st.Depth)

	// 3. Schedule it three ways.
	const stages = 4
	rlSched, err := agent.Schedule(g, stages)
	if err != nil {
		log.Fatal(err)
	}
	compSched := respect.ScheduleCompiler(g, stages)
	exSched, exCost, optimal := respect.ScheduleExact(g, stages, 30*time.Second)

	fmt.Printf("\nobjective (peak per-stage parameter memory):\n")
	fmt.Printf("  compiler heuristic: %v\n", compSched.Evaluate(g))
	fmt.Printf("  RESPECT (RL):       %v\n", rlSched.Evaluate(g))
	fmt.Printf("  exact (optimal=%v): %v\n", optimal, exCost)

	// 4. Simulate 1000 pipelined inferences on the Coral platform model.
	hw := respect.CoralHW()
	fmt.Printf("\nsimulated mean per-inference latency (10 rounds x 1000 inferences):\n")
	for _, c := range []struct {
		name string
		s    respect.Schedule
	}{{"compiler", compSched}, {"RESPECT", rlSched}, {"exact", exSched}} {
		lat, err := respect.MeasureInference(g, c.s, hw)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s %v\n", c.name, lat)
	}
}
