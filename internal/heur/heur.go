// Package heur implements the heuristic scheduling baselines the paper
// discusses (§II) that the solver registry serves: the greedy
// parameter-balanced partitioner believed to drive Google's Edge TPU
// compiler, an exact-on-a-fixed-order dynamic program (the "adaptive
// budgeting" style of Ahn et al.), and simulated annealing.
//
// All heuristics return schedules satisfying pipeline monotonicity, not
// necessarily deployable ones; callers apply sched.PostProcess before
// hardware deployment, as the solver registry's heuristic backends do.
package heur

import (
	"context"
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

// annealCheckEvery is how many annealing steps run between ctx checks.
const annealCheckEvery = 64

// Annealed improves a seed schedule by simulated annealing over segment
// boundaries of the deterministic topological order: moves shift one cut
// point by one position; acceptance follows the Metropolis rule on the
// lexicographic (peak, cross) objective scalarized in bytes. It checks ctx
// every annealCheckEvery steps and, once ctx is done, returns the best
// schedule seen so far.
func Annealed(ctx context.Context, g *graph.Graph, numStages int, steps int, seed int64) sched.Schedule {
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
		if len(cuts) == 0 || step%annealCheckEvery == 0 && ctx.Err() != nil {
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
