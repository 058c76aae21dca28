// Multi-model co-deployment: the paper's flow "takes single or multiple
// DNN models and the number of pipeline stages as inputs". This example
// schedules MobileNet and ResNet50 *jointly* onto one 4-stage pipeline —
// the exact solver balances their combined parameter memory — and compares
// against deploying each model on its own dedicated split of the pipe.
package main

import (
	"fmt"
	"log"
	"time"

	"respect"
)

func main() {
	log.SetFlags(0)

	mobilenet, err := respect.LoadModel("MobileNet")
	if err != nil {
		log.Fatal(err)
	}
	resnet, err := respect.LoadModel("ResNet50")
	if err != nil {
		log.Fatal(err)
	}
	joint, err := respect.MergeGraphs(mobilenet, resnet)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("joint graph %s: |V|=%d, %.1f MiB parameters\n",
		joint.Name, joint.NumNodes(), float64(joint.TotalParamBytes())/(1<<20))

	const stages = 4
	hw := respect.CoralHW()

	// Co-scheduled: one exact solve over the union.
	s, cost, optimal := respect.ScheduleExact(joint, stages, 60*time.Second)
	fmt.Printf("\nco-scheduled on %d stages (optimal=%v): %v\n", stages, optimal, cost)
	rep, err := respect.Simulate(joint, s, hw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  bottleneck %v -> %.0f joint inferences/s\n", rep.Bottleneck, rep.Throughput())

	// Dedicated split: MobileNet on 1 stage, ResNet50 on the other 3 —
	// the natural hand partition by model size.
	sm, _, _ := respect.ScheduleExact(mobilenet, 1, time.Second)
	sr, _, _ := respect.ScheduleExact(resnet, 3, 30*time.Second)
	repM, err := respect.Simulate(mobilenet, sm, hw)
	if err != nil {
		log.Fatal(err)
	}
	repR, err := respect.Simulate(resnet, sr, hw)
	if err != nil {
		log.Fatal(err)
	}
	// Both sub-pipelines run concurrently; the joint rate is limited by
	// the slower one.
	dedicated := repM.Bottleneck
	if repR.Bottleneck > dedicated {
		dedicated = repR.Bottleneck
	}
	fmt.Printf("\ndedicated split (1 + 3 stages):\n")
	fmt.Printf("  MobileNet bottleneck %v, ResNet50 bottleneck %v\n", repM.Bottleneck, repR.Bottleneck)
	fmt.Printf("  joint rate limited to %.0f inferences/s\n", float64(time.Second)/float64(dedicated))

	fmt.Printf("\nco-scheduling advantage: %.2fx\n",
		float64(dedicated)/float64(rep.Bottleneck))
}
