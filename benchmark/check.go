package main

import "fmt"

// checkSchedule is the benchmark's own validity check of a served stage
// vector, independent of the server's sched.Validate: it covers every
// node, every stage lies in [0, stages), and no edge runs backwards
// through the pipeline. The edges come from the request document the
// benchmark itself sent, not from anything the server returned.
func checkSchedule(stage []int, nodes, stages int, edges [][2]int) error {
	if len(stage) != nodes {
		return fmt.Errorf("schedule covers %d nodes, graph has %d", len(stage), nodes)
	}
	for v, s := range stage {
		if s < 0 || s >= stages {
			return fmt.Errorf("node %d on stage %d outside [0,%d)", v, s, stages)
		}
	}
	for _, e := range edges {
		if stage[e[0]] > stage[e[1]] {
			return fmt.Errorf("edge (%d,%d) runs backwards: stage %d > %d", e[0], e[1], stage[e[0]], stage[e[1]])
		}
	}
	return nil
}
