// Package exact implements the exact optimal pipeline scheduler that
// RESPECT imitates — the role CPLEX-solved ILP plays in the paper.
//
// A monotone n-stage schedule of a DAG is exactly a chain of n order
// ideals (downward-closed node sets): ∅ ⊆ I₁ ⊆ … ⊆ Iₙ = V, with stage k
// executing Iₖ₊₁ \ Iₖ. The solver branches over that chain directly:
// stages are grown node by node through include/exclude decisions on ready
// nodes, with
//
//   - an incumbent seeded by the DP segmentation heuristic,
//   - a bound max(peak-so-far, segment, ⌈remaining/stagesLeft⌉) pruned
//     strictly against the incumbent, and
//   - memoization on (ideal, stage) states.
//
// The objective is the paper's Figure 5 metric: peak per-stage parameter
// memory. When the search completes within its budget (Result.Optimal),
// the returned peak is provably minimal. Cross-stage traffic is reported
// and used to order equal-peak choices inside the seed, but is exhaustively
// optimized only under Options.TieBreakCross.
//
// The search runs in one of two spaces. Unconstrained, it ranges over all
// monotone schedules of the graph: the paper's ILP objective, a lower bound
// no deployed schedule can beat, and the label the RL teacher trains on.
// Under Options.ChildrenRule it ranges over the schedules the Edge TPU can
// run, where all children of a node share a stage. Those are exactly the
// monotone schedules of the graph's sibling-class quotient DAG
// (sched.Condense): a deployable schedule is constant on sibling classes,
// and monotonicity forces equality around class-level cycles, so nothing is
// lost and nothing is added by solving the quotient, a much smaller graph,
// as an ordinary instance and expanding its stages back.
package exact

import (
	"context"
	"sync"
	"time"

	"respect/internal/bitset"
	"respect/internal/graph"
	"respect/internal/sched"
)

// Options configures the solver's effort budget. Wall-clock limits come
// only from the context passed to SolveCtx.
type Options struct {
	// MaxStates bounds the number of search states; zero means no limit.
	MaxStates int64
	// TieBreakCross additionally minimizes cross-stage activation traffic
	// among all peak-optimal schedules — the paper's joint memory- and
	// communication-aware exact formulation [21]. The equal-peak plateau
	// makes this search far more expensive (it is the configuration whose
	// solve time stands in for CPLEX in the Figure 3 comparison); leave it
	// off when only the optimal peak is needed (Figure 5 ground truth,
	// RL training labels).
	TieBreakCross bool
	// ChildrenRule searches the deployable schedules, those satisfying the
	// Edge TPU hardware constraint that all children of a node share a stage,
	// by solving the graph's sibling-class quotient (see the package comment);
	// Optimal then proves no deployable schedule has a lower peak. This is
	// what the serving backends and the public facade solve. Without it the
	// optimum is a lower bound that post-processed schedules may be unable to
	// reach: the mode of the RL teacher's labels and of the paper's Figure 3
	// and Figure 5 reference columns.
	ChildrenRule bool
}

// Result is the outcome of an exact solve.
type Result struct {
	// Schedule is the best schedule found.
	Schedule sched.Schedule
	// Cost is Schedule's objective value.
	Cost sched.Cost
	// Optimal reports whether the search space was exhausted, proving
	// Cost.PeakParamBytes minimal over the space searched: all monotone
	// schedules, or under Options.ChildrenRule the deployable ones.
	Optimal bool
	// States counts explored search states (for scalability reporting).
	States int64
	// Elapsed is the wall-clock solve time.
	Elapsed time.Duration
}

// scratch is the solver's pooled arena: every per-solve buffer, bit set
// and memo table lives here and is recycled across solves instead of
// re-allocated per SolveCtx. All bit sets inside one scratch share a
// single capacity (capN), at least the instance's node count; a solve of a
// larger instance grows the arena, a smaller one reslices it.
type scratch struct {
	capN int // bit-set capacity every set in this arena was built with

	param  []int64
	out    []int64
	stage  []int
	indeg  []int
	ready  []int
	placed []int
	undo   []int // shared exclusion-undo stack across recursion levels
	ideal  *bitset.Set
	excl   []*bitset.Set // per-stage current-segment exclusions
	memo   map[string]int64
	pareto map[string][][2]int64
	keyBuf []byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// memoRetainLimit bounds how large a memo table the pool keeps: clearing
// a map retains its buckets, which is exactly what repeated solves of
// similar graphs want, but an occasional huge search must not pin its
// peak footprint forever.
const memoRetainLimit = 1 << 18

// acquireScratch returns a reset arena sized for (n, numStages).
func acquireScratch(n, numStages int) *scratch {
	sc := scratchPool.Get().(*scratch)
	if sc.capN < n || sc.ideal == nil {
		sc.capN = n
		sc.ideal = bitset.New(n)
		sc.excl = sc.excl[:0]
	}
	growInt64(&sc.param, n)
	growInt64(&sc.out, n)
	growInt(&sc.stage, n)
	growInt(&sc.indeg, n)
	sc.ready = sc.ready[:0]
	sc.placed = sc.placed[:0]
	sc.undo = sc.undo[:0]
	sc.ideal.Reset()
	for len(sc.excl) < numStages {
		sc.excl = append(sc.excl, bitset.New(sc.capN))
	}
	for k := 0; k < numStages; k++ {
		sc.excl[k].Reset()
	}
	if sc.memo == nil {
		sc.memo = make(map[string]int64)
	}
	if sc.pareto == nil {
		sc.pareto = make(map[string][][2]int64)
	}
	return sc
}

// reset clears the memo tables so the next solve can never observe
// this solve's state. Clearing a map retains its buckets, which is what
// repeated solves of similar graphs want, but an occasional huge search
// must not pin its peak footprint forever — past memoRetainLimit the
// tables are dropped instead.
func (sc *scratch) reset() {
	if len(sc.memo) > memoRetainLimit {
		sc.memo = make(map[string]int64)
	} else {
		clear(sc.memo)
	}
	if len(sc.pareto) > memoRetainLimit {
		sc.pareto = make(map[string][][2]int64)
	} else {
		clear(sc.pareto)
	}
}

// releaseScratch returns the arena to the pool with its tables cleared.
func releaseScratch(sc *scratch) {
	sc.reset()
	scratchPool.Put(sc)
}

func growInt64(buf *[]int64, n int) {
	if cap(*buf) < n {
		*buf = make([]int64, n)
	}
	*buf = (*buf)[:n]
}

func growInt(buf *[]int, n int) {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
}

type solver struct {
	// g is the instance the search ranges over: the caller's graph, or its
	// sibling-class quotient under the children rule.
	g         *graph.Graph
	numStages int
	opts      Options
	ctx       context.Context

	sc    *scratch
	total int64

	tieBreak bool
	// edgeOut, set when g is a quotient, prices its edges for the tie-break:
	// edgeOut[a][j] is the activation bytes that cross when g.Succ(a)[j]
	// runs in a later stage than a.
	edgeOut [][]int64

	best      sched.Schedule
	bestPeak  int64
	bestCross int64 // maintained under tieBreak only
	states    int64
	truncated bool
}

// Solve finds a minimum-peak-memory monotone schedule of g on numStages
// stages.
func Solve(g *graph.Graph, numStages int, opts Options) Result {
	return SolveCtx(context.Background(), g, numStages, opts)
}

// SolveCtx is Solve under a context. Cancellation or an expired context
// deadline truncates the search (Result.Optimal false) and the best
// incumbent found so far — at minimum the DP seed — is returned, so a
// cancelled solve still yields a valid schedule (a deployable one under
// Options.ChildrenRule).
func SolveCtx(ctx context.Context, g *graph.Graph, numStages int, opts Options) Result {
	start := time.Now()
	if numStages < 1 {
		numStages = 1
	}
	s := &solver{g: g, numStages: numStages, opts: opts, ctx: ctx, tieBreak: opts.TieBreakCross}
	// expand maps a schedule of the instance to one of the caller's graph.
	expand := func(sch sched.Schedule) sched.Schedule { return sch }
	if opts.ChildrenRule {
		q := sched.Condense(g)
		s.g, s.edgeOut = quotientInstance(g, q, s.tieBreak)
		expand = q.Expand
	}

	// Incumbent: exact DP over the instance's deterministic topological
	// order, priced on the caller's graph. For single-stage problems this
	// is already optimal.
	s.best = sched.DPBudget(s.g, numStages)
	seedCost := expand(s.best).Evaluate(g)
	s.bestPeak, s.bestCross = seedCost.PeakParamBytes, seedCost.CrossBytes
	switch {
	case numStages == 1 || s.g.NumNodes() == 0:
	case ctx.Err() != nil:
		// Cancelled before the search started: hand back the DP seed as a
		// truncated incumbent without exploring anything.
		s.truncated = true
	default:
		s.search()
	}

	best := expand(s.best)
	return Result{
		Schedule: best,
		Cost:     best.Evaluate(g),
		Optimal:  !s.truncated,
		States:   s.states,
		Elapsed:  time.Since(start),
	}
}

// quotientInstance materialises q, the sibling-class quotient of g, as a
// graph the search can range over: node c weighs class c's parameters and
// the edges are the quotient's. With cross set it also prices those edges
// for the tie-break. In a deployable schedule all children of v sit in one
// class, so v's tensor crosses iff that class runs in a later stage than
// v's own: edge (A, B) carries Σ OutBytes over the members of A whose
// children lie in B.
func quotientInstance(g *graph.Graph, q sched.Quotient, cross bool) (*graph.Graph, [][]int64) {
	nc := q.NumClasses()
	qg := q.Graph(g.Name)
	if !cross {
		return qg, nil
	}
	flat := make([]int64, qg.NumEdges())
	edgeOut := make([][]int64, nc)
	for a := 0; a < nc; a++ {
		deg := len(q.Succ(a))
		edgeOut[a], flat = flat[:deg], flat[deg:]
	}
	for v := 0; v < g.NumNodes(); v++ {
		if len(g.Succ(v)) == 0 {
			continue
		}
		a, b := q.ClassOf[v], q.ClassOf[g.Succ(v)[0]]
		for j, c := range q.Succ(a) {
			if c == b {
				edgeOut[a][j] += g.Node(v).OutBytes
			}
		}
	}
	return qg, edgeOut
}

// search runs the branch and bound over s.g from the empty ideal.
func (s *solver) search() {
	n := s.g.NumNodes()
	sc := acquireScratch(n, s.numStages)
	defer releaseScratch(sc)
	s.sc = sc
	for v := 0; v < n; v++ {
		sc.param[v] = s.g.Node(v).ParamBytes
		sc.out[v] = s.g.Node(v).OutBytes
		s.total += sc.param[v]
		sc.indeg[v] = len(s.g.Pred(v))
		if sc.indeg[v] == 0 {
			sc.ready = append(sc.ready, v)
		}
	}
	s.extend(0, 0, 0, 0, 0, 0)
}

func (s *solver) budgetExceeded() bool {
	if s.truncated {
		return true
	}
	if s.opts.MaxStates > 0 && s.states >= s.opts.MaxStates {
		s.truncated = true
		return true
	}
	if s.states&0xfff == 0 && s.ctx.Err() != nil {
		s.truncated = true
		return true
	}
	return false
}

// ceilDiv returns ⌈a/b⌉ for positive b.
func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// extend grows stage k (weighing segMem bytes so far, with placed bytes
// placed overall across all closed stages plus this segment) by
// include/exclude decisions over the ready list; peak is the largest
// closed-segment weight so far. Invariant: k <= numStages-2 — the final
// stage is materialized in closeStage.
func (s *solver) extend(k int, peak, segMem, placed int64, segStart int, cross int64) {
	s.states++
	if s.budgetExceeded() {
		return
	}

	// Option 1: close stage k here and continue with stage k+1.
	s.closeStage(k, peak, segMem, placed, segStart, cross)

	// Option 2: grow the segment with one more ready node. The exclusion
	// set realizes the include/exclude dichotomy: once a node has headed
	// an include branch at this level it is barred from sibling branches,
	// so every ideal is generated from a canonical decision sequence.
	// Exclusion bits set at this level are recorded on the shared undo
	// stack above undoMark; recursive calls only unwind their own marks.
	sc := s.sc
	excl := sc.excl[k]
	undoMark := len(sc.undo)
	defer func() {
		for _, v := range sc.undo[undoMark:] {
			excl.Clear(v)
		}
		sc.undo = sc.undo[:undoMark]
	}()
	for i := 0; i < len(sc.ready); i++ {
		v := sc.ready[i]
		if excl.Has(v) {
			continue
		}
		segNew := segMem + sc.param[v]
		prunedByPeak := segNew > s.bestPeak
		if !s.tieBreak && segNew == s.bestPeak {
			prunedByPeak = true
		}
		if prunedByPeak {
			// Including v cannot strictly improve the incumbent; bar it
			// from this segment but keep it available for later stages.
			excl.Set(v)
			sc.undo = append(sc.undo, v)
			continue
		}

		// Include v into stage k. The removal keeps list order so the
		// post-recursion undo can pop the newly-ready nodes from the tail
		// and reinsert v at position i, restoring the list exactly.
		sc.ideal.Set(v)
		sc.stage[v] = k
		sc.placed = append(sc.placed, v)
		sc.ready = append(sc.ready[:i], sc.ready[i+1:]...)
		for _, w := range s.g.Succ(v) {
			sc.indeg[w]--
			if sc.indeg[w] == 0 {
				sc.ready = append(sc.ready, w)
			}
		}

		s.extend(k, peak, segNew, placed+sc.param[v], segStart, cross)

		// Undo in reverse.
		succ := s.g.Succ(v)
		for j := len(succ) - 1; j >= 0; j-- {
			w := succ[j]
			if sc.indeg[w] == 0 {
				sc.ready = sc.ready[:len(sc.ready)-1]
			}
			sc.indeg[w]++
		}
		sc.ready = append(sc.ready, 0)
		copy(sc.ready[i+1:], sc.ready[i:len(sc.ready)-1])
		sc.ready[i] = v
		sc.placed = sc.placed[:len(sc.placed)-1]
		sc.ideal.Clear(v)

		excl.Set(v)
		sc.undo = append(sc.undo, v)
		if s.budgetExceeded() {
			return
		}
	}
}

// closeStage finalizes stage k at the current ideal and recurses into the
// next stage, or materializes the final-stage leaf.
func (s *solver) closeStage(k int, peak, segMem, placed int64, segStart int, cross int64) {
	sc := s.sc
	newPeak := peak
	if segMem > newPeak {
		newPeak = segMem
	}
	remaining := s.total - placed
	stagesLeft := int64(s.numStages - k - 1)

	newCross := cross
	if s.tieBreak {
		// Producers in this segment whose consumers lie beyond the ideal
		// ship their output tensor over USB: once per producer on a plain
		// graph, once per outgoing edge on a quotient, whose edges each stand
		// for different producers.
		for _, v := range sc.placed[segStart:] {
			for j, w := range s.g.Succ(v) {
				if sc.ideal.Has(w) {
					continue
				}
				if s.edgeOut == nil {
					newCross += sc.out[v]
					break
				}
				newCross += s.edgeOut[v][j]
			}
		}
	}

	// Lower bound with the remaining mass spread perfectly.
	lb := newPeak
	if remaining > 0 {
		if spread := ceilDiv(remaining, stagesLeft); spread > lb {
			lb = spread
		}
	}
	if s.tieBreak {
		if lb > s.bestPeak || (lb == s.bestPeak && newCross >= s.bestCross) {
			return
		}
	} else if lb >= s.bestPeak {
		return
	}

	if stagesLeft == 1 {
		// Final stage takes the whole remainder; this is a leaf. The last
		// stage adds no crossings: successors of unplaced nodes are
		// unplaced (ideals are downward closed), hence co-located. So
		// (finalPeak, newCross) is the leaf's cost, and a leaf that gets past
		// the bound is a strictly better incumbent.
		finalPeak := newPeak
		if remaining > finalPeak {
			finalPeak = remaining
		}
		if s.tieBreak {
			if finalPeak > s.bestPeak || (finalPeak == s.bestPeak && newCross >= s.bestCross) {
				return
			}
		} else if finalPeak >= s.bestPeak {
			return
		}
		leaf := sched.NewSchedule(len(sc.stage), s.numStages)
		for v := range sc.stage {
			if sc.ideal.Has(v) {
				leaf.Stage[v] = sc.stage[v]
			} else {
				leaf.Stage[v] = s.numStages - 1
			}
		}
		s.best, s.bestPeak, s.bestCross = leaf, finalPeak, newCross
		return
	}

	// Memo key: raw ideal words plus the stage index, probed through the
	// compiler's no-copy m[string(buf)] fast path. The buffer is only
	// materialized into a string on insert.
	sc.keyBuf = sc.ideal.AppendKey(sc.keyBuf[:0])
	sc.keyBuf = append(sc.keyBuf, byte(k), byte(k>>8))
	if s.tieBreak {
		// Pareto memo: a previous visit dominating on both peak and cross
		// has already explored every completion at least as well.
		front := sc.pareto[string(sc.keyBuf)]
		for _, p := range front {
			if p[0] <= newPeak && p[1] <= newCross {
				return
			}
		}
		kept := front[:0]
		for _, p := range front {
			if !(newPeak <= p[0] && newCross <= p[1]) {
				kept = append(kept, p)
			}
		}
		sc.pareto[string(sc.keyBuf)] = append(kept, [2]int64{newPeak, newCross})
	} else {
		// Memo cut: if this (ideal, stage) was reached before with a peak
		// no worse, the earlier visit explored a superset of completions.
		if prev, ok := sc.memo[string(sc.keyBuf)]; ok && prev <= newPeak {
			return
		}
		sc.memo[string(sc.keyBuf)] = newPeak
	}

	sc.excl[k+1].Reset()
	s.extend(k+1, newPeak, 0, placed, len(sc.placed), newCross)
}

// BruteForce exhaustively enumerates all monotone stage assignments; for
// test-scale graphs only (cost O(numStages^|V|) shrunk by monotonicity).
func BruteForce(g *graph.Graph, numStages int) Result {
	start := time.Now()
	n := g.NumNodes()
	topo := g.Topo()
	stage := make([]int, n)
	best := sched.NewSchedule(n, numStages)
	bestCost := sched.Cost{PeakParamBytes: 1 << 62, CrossBytes: 1 << 62}
	var states int64

	var rec func(i int)
	rec = func(i int) {
		if i == n {
			states++
			s := sched.Schedule{NumStages: numStages, Stage: stage}
			cost := s.Evaluate(g)
			if cost.Less(bestCost) {
				bestCost = cost
				copy(best.Stage, stage)
			}
			return
		}
		v := topo[i]
		lo := 0
		for _, p := range g.Pred(v) {
			if stage[p] > lo {
				lo = stage[p]
			}
		}
		for st := lo; st < numStages; st++ {
			stage[v] = st
			rec(i + 1)
		}
	}
	rec(0)
	return Result{Schedule: best, Cost: bestCost, Optimal: true, States: states, Elapsed: time.Since(start)}
}
