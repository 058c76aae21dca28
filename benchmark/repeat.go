package main

import (
	"fmt"
	"math"
)

// repeatCheck runs every workload n times back to back, prints the sets
// side by side and fails if an end-to-end metric of a later set differs
// from the first by more than its bound. The two schedule-quality metrics
// must match exactly: they depend on what the solvers answered, not on
// timing.
func (e *env) repeatCheck(n int) error {
	sets := make([]map[string]*result, n)
	for i := range sets {
		sets[i] = map[string]*result{}
		for _, w := range workloads() {
			res, err := e.runEndToEnd(w)
			if err != nil {
				return fmt.Errorf("set %d: %w", i+1, err)
			}
			logf("set %d: %s took %.1fs", i+1, w.name, res.wall.Seconds())
			sets[i][w.name] = res
		}
	}
	var failures []string
	for _, w := range workloads() {
		for _, m := range endToEndMetrics {
			first := sets[0][w.name].metrics[m.name]
			line := fmt.Sprintf("%-14s %-20s %14.6g", w.name, m.name, first)
			for i := 1; i < n; i++ {
				v := sets[i][w.name].metrics[m.name]
				diff := math.Abs(v-first) / math.Min(v, first)
				line += fmt.Sprintf(" %14.6g (%+.2f%%)", v, (v-first)/first*100)
				if m.exact && v != first {
					failures = append(failures, fmt.Sprintf("%s %s: %v != %v (must repeat exactly)", w.name, m.name, v, first))
				} else if diff > m.bound {
					failures = append(failures, fmt.Sprintf("%s %s: %.6g vs %.6g differ by %.1f%%, bound %.1f%%", w.name, m.name, v, first, diff*100, m.bound*100))
				}
			}
			fmt.Printf("%s %s\n", line, m.unit)
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			logf("repeat: %s", f)
		}
		return fmt.Errorf("repeat: %d metric(s) outside their bound", len(failures))
	}
	fmt.Println("repeat check passed")
	return nil
}
