// Custom-graph deployment: build your own computational DAG with the
// public API, schedule it with the exact solver (whose optimum is over
// the schedules the hardware can run, so no repair follows), and simulate
// the pipeline — the path a user takes for a model that is not in the zoo.
package main

import (
	"fmt"
	"log"
	"time"

	"respect"
)

func main() {
	log.SetFlags(0)

	// A two-branch detection head: shared backbone stem, one heavy
	// classification branch, one light localization branch, late fusion.
	g := respect.NewGraph("detector-head")
	mib := func(m float64) int64 { return int64(m * (1 << 20)) }

	in := g.AddNode(respect.Node{Name: "input", OutBytes: 300 * 300 * 3})
	stem := g.AddNode(respect.Node{Name: "stem_conv", ParamBytes: mib(2), OutBytes: mib(1.5), MACs: 4e8})
	b1a := g.AddNode(respect.Node{Name: "cls_conv1", ParamBytes: mib(6), OutBytes: mib(1), MACs: 9e8})
	b1b := g.AddNode(respect.Node{Name: "cls_conv2", ParamBytes: mib(9), OutBytes: mib(0.5), MACs: 7e8})
	b2a := g.AddNode(respect.Node{Name: "loc_conv1", ParamBytes: mib(3), OutBytes: mib(1), MACs: 5e8})
	b2b := g.AddNode(respect.Node{Name: "loc_conv2", ParamBytes: mib(2), OutBytes: mib(0.5), MACs: 3e8})
	fuse := g.AddNode(respect.Node{Name: "concat", OutBytes: mib(1)})
	head := g.AddNode(respect.Node{Name: "head_fc", ParamBytes: mib(4), OutBytes: 64 << 10, MACs: 2e8})

	g.AddEdge(in, stem)
	g.AddEdge(stem, b1a)
	g.AddEdge(b1a, b1b)
	g.AddEdge(stem, b2a)
	g.AddEdge(b2a, b2b)
	g.AddEdge(b1b, fuse)
	g.AddEdge(b2b, fuse)
	g.AddEdge(fuse, head)
	if err := g.Build(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: |V|=%d, %.1f MiB parameters\n",
		g.Name, g.NumNodes(), float64(g.TotalParamBytes())/(1<<20))

	for _, stages := range []int{2, 3} {
		s, cost, optimal := respect.ScheduleExact(g, stages, time.Second)
		fmt.Printf("\n%d-stage exact schedule (proven optimal: %v): %v\n", stages, optimal, cost)
		perStage := s.StageParamBytes(g)
		for k, m := range perStage {
			fmt.Printf("  stage %d (%.1f MiB):", k, float64(m)/(1<<20))
			for v := 0; v < g.NumNodes(); v++ {
				if s.Stage[v] == k {
					fmt.Printf(" %s", g.Node(v).Name)
				}
			}
			fmt.Println()
		}
		rep, err := respect.Simulate(g, s, respect.CoralHW())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  simulated: bottleneck %v, %.0f inferences/s, %.3f mJ/inference\n",
			rep.Bottleneck, rep.Throughput(), rep.EnergyPerInference*1e3)
	}
}
