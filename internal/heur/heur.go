// Package heur implements the heuristic scheduling baselines the paper
// discusses (§II): the greedy parameter-balanced partitioner believed to
// drive Google's Edge TPU compiler, Hu's level algorithm, list scheduling,
// force-directed scheduling, an exact-on-a-fixed-order dynamic program
// (the "adaptive budgeting" style of Ahn et al.), and simulated annealing.
//
// All heuristics return schedules satisfying pipeline monotonicity, not
// necessarily deployable ones; callers apply sched.PostProcess before
// hardware deployment, as the solver registry's heuristic backends do.
package heur

import (
	"math"
	"math/rand"

	"respect/internal/graph"
	"respect/internal/sched"
)

// GreedyBalanced emulates the commercial Edge TPU compiler's pipeline
// partitioner: walk a fixed topological order and cut a new segment
// whenever the running parameter count exceeds the balanced budget
// total/n. This is the documented behaviour of coral's --num_segments
// splitter and the paper's "heuristic method" baseline.
func GreedyBalanced(g *graph.Graph, numStages int) sched.Schedule {
	s, err := sched.SequenceToSchedule(g, g.TopoView(), numStages)
	if err != nil {
		// Topo order over the graph's own nodes cannot fail validation.
		panic("heur: GreedyBalanced: " + err.Error())
	}
	return s
}

// HuLevel schedules by ASAP level bands: nodes are bucketed by topological
// level and levels are split across stages so each stage holds a contiguous
// level range with roughly equal node counts — Hu's algorithm adapted from
// unit-latency processors to pipeline partitioning.
func HuLevel(g *graph.Graph, numStages int) sched.Schedule {
	s := sched.NewSchedule(g.NumNodes(), numStages)
	depth := g.Depth() + 1
	for v := 0; v < g.NumNodes(); v++ {
		st := g.ASAP(v) * numStages / depth
		if st >= numStages {
			st = numStages - 1
		}
		s.Stage[v] = st
	}
	return s
}

// ListSchedule is a classic list scheduler driven by a ready priority
// queue: repeatedly place the ready node with the longest remaining
// critical path into the current stage, opening the next stage when the
// stage's parameter budget fills. Unlike GreedyBalanced it reorders
// independent nodes to pack stages tighter.
func ListSchedule(g *graph.Graph, numStages int) sched.Schedule {
	n := g.NumNodes()
	// Critical-path-to-sink length per node (in MACs-weighted ops).
	cp := make([]int64, n)
	topo := g.TopoView()
	for i := n - 1; i >= 0; i-- {
		v := topo[i]
		var best int64
		for _, w := range g.Succ(v) {
			if cp[w] > best {
				best = cp[w]
			}
		}
		cp[v] = best + 1 + g.Node(v).MACs/1e6
	}

	total := g.TotalParamBytes()
	budget := (total + int64(numStages) - 1) / int64(numStages)
	if budget < 1 {
		budget = 1
	}

	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(g.Pred(v))
	}
	var ready []int
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	s := sched.NewSchedule(n, numStages)
	stage, acc := 0, int64(0)
	for len(ready) > 0 {
		// Pick the ready node with the longest critical path (ties by ID).
		bi := 0
		for i := 1; i < len(ready); i++ {
			if cp[ready[i]] > cp[ready[bi]] ||
				(cp[ready[i]] == cp[ready[bi]] && ready[i] < ready[bi]) {
				bi = i
			}
		}
		v := ready[bi]
		ready = append(ready[:bi], ready[bi+1:]...)

		p := g.Node(v).ParamBytes
		if acc > 0 && acc+p > budget && stage < numStages-1 {
			stage++
			acc = 0
		}
		s.Stage[v] = stage
		acc += p
		for _, w := range g.Succ(v) {
			indeg[w]--
			if indeg[w] == 0 {
				ready = append(ready, w)
			}
		}
	}
	return s
}

// ForceDirected adapts Paulin & Knight's force-directed scheduling to
// pipeline partitioning: nodes are placed one at a time (most-constrained
// first) into the feasible stage window [maxParentStage, numStages), at
// the stage minimizing a "force" equal to the projected increase in the
// squared stage-memory distribution.
func ForceDirected(g *graph.Graph, numStages int) sched.Schedule {
	n := g.NumNodes()
	s := sched.NewSchedule(n, numStages)
	mem := make([]float64, numStages)
	depth := g.Depth() + 1

	// Place in topological order (parents first) so the feasible window is
	// known; most-constrained ordering is approximated by topo position.
	for _, v := range g.TopoView() {
		lo := 0
		for _, p := range g.Pred(v) {
			if s.Stage[p] > lo {
				lo = s.Stage[p]
			}
		}
		// The ALAP level caps how late this node may run while leaving its
		// descendants room, mapped proportionally onto stages.
		hi := (g.ALAP(v)*numStages)/depth + 1
		if hi > numStages {
			hi = numStages
		}
		if hi <= lo {
			hi = lo + 1
		}
		m := float64(g.Node(v).ParamBytes)
		best, bestForce := lo, math.Inf(1)
		for st := lo; st < hi; st++ {
			force := (mem[st] + m) * (mem[st] + m)
			for k := 0; k < numStages; k++ {
				if k != st {
					force += mem[k] * mem[k]
				}
			}
			if force < bestForce {
				bestForce, best = force, st
			}
		}
		s.Stage[v] = best
		mem[best] += m
	}
	return s
}

// DPBudget computes the optimal segmentation of the graph's deterministic
// topological order into numStages contiguous segments, minimizing peak
// segment parameter memory (an O(|V|² · n) dynamic program in the spirit
// of memory-aware adaptive budgeting). It is exact over that single order,
// making it both a strong heuristic and the incumbent seed for the exact
// solver's branch and bound.
func DPBudget(g *graph.Graph, numStages int) sched.Schedule {
	return DPBudgetOrder(g, g.TopoView(), numStages)
}

// DPBudgetOrder is DPBudget over a caller-supplied linear extension; it
// delegates to the shared DP in package sched.
func DPBudgetOrder(g *graph.Graph, order []int, numStages int) sched.Schedule {
	s, err := sched.SequenceToScheduleDP(g, order, numStages)
	if err != nil {
		panic("heur: DPBudgetOrder: " + err.Error())
	}
	return s
}

// Annealed improves a seed schedule by simulated annealing over segment
// boundaries of the deterministic topological order: moves shift one cut
// point by one position; acceptance follows the Metropolis rule on the
// lexicographic (peak, cross) objective scalarized in bytes.
func Annealed(g *graph.Graph, numStages int, steps int, seed int64) sched.Schedule {
	order := g.TopoView()
	n := len(order)
	rng := rand.New(rand.NewSource(seed))

	// Represent the schedule as cut points 0 <= c1 <= ... <= c_{n-1} <= n.
	cuts := make([]int, numStages-1)
	base := DPBudget(g, numStages)
	// Derive initial cuts from the DP seed.
	idx := 0
	for i, v := range order {
		for idx < len(cuts) && base.Stage[v] > idx {
			cuts[idx] = i
			idx++
		}
	}
	for ; idx < len(cuts); idx++ {
		cuts[idx] = n
	}

	build := func(cuts []int) sched.Schedule {
		s := sched.NewSchedule(n, numStages)
		st := 0
		for i, v := range order {
			for st < len(cuts) && i >= cuts[st] {
				st++
			}
			s.Stage[v] = st
		}
		return s
	}
	score := func(c sched.Cost) float64 {
		return float64(c.PeakParamBytes) + float64(c.CrossBytes)/1e4
	}

	cur := build(cuts)
	curScore := score(cur.Evaluate(g))
	best, bestScore := cur, curScore
	if steps < 1 {
		return best
	}
	temp0 := curScore/10 + 1
	for step := 0; step < steps; step++ {
		if len(cuts) == 0 {
			break
		}
		i := rng.Intn(len(cuts))
		delta := 1
		if rng.Intn(2) == 0 {
			delta = -1
		}
		old := cuts[i]
		nc := old + delta
		lo, hi := 0, n
		if i > 0 {
			lo = cuts[i-1]
		}
		if i < len(cuts)-1 {
			hi = cuts[i+1]
		}
		if nc < lo || nc > hi {
			continue
		}
		cuts[i] = nc
		cand := build(cuts)
		candScore := score(cand.Evaluate(g))
		temp := temp0 * math.Exp(-3*float64(step)/float64(steps))
		if candScore <= curScore || rng.Float64() < math.Exp((curScore-candScore)/math.Max(temp, 1e-9)) {
			cur, curScore = cand, candScore
			if curScore < bestScore {
				best, bestScore = cur, curScore
			}
		} else {
			cuts[i] = old
		}
	}
	return best
}
