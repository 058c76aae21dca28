// Package sched defines the pipeline-scheduling problem RESPECT solves:
// schedule types, validity constraints, the memory/communication objective,
// the ρ mapping from emitted node sequences to stage assignments (Eq. 2 of
// the paper), and the deterministic post-inference repair applied before
// hardware deployment (§III, "Post-Inference Processing").
package sched

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"respect/internal/graph"
)

// Schedule assigns every node of a graph to one of NumStages pipeline
// stages. Stage k executes on Edge TPU k; activations flowing to a later
// stage cross the USB fabric.
type Schedule struct {
	// NumStages is the pipeline length n (the paper evaluates 4, 5, 6).
	NumStages int
	// Stage[v] is the stage of node v, in [0, NumStages).
	Stage []int
}

// MaxStages is the longest pipeline the service schedules for: request
// validation and speculative mutation both stop here. Real
// Coral deployments pipeline a handful of Edge TPUs, so anything beyond it
// is a client error rather than a capacity problem.
const MaxStages = 64

// NewSchedule returns an all-zero schedule for numNodes nodes.
func NewSchedule(numNodes, numStages int) Schedule {
	return Schedule{NumStages: numStages, Stage: make([]int, numNodes)}
}

// Clone returns a deep copy.
func (s Schedule) Clone() Schedule {
	c := Schedule{NumStages: s.NumStages, Stage: make([]int, len(s.Stage))}
	copy(c.Stage, s.Stage)
	return c
}

// Validate checks structural validity: stage bounds and pipeline
// monotonicity (stage(u) <= stage(v) for every edge u->v). A nil error
// means the schedule is deployable after the children-same-stage repair.
func (s Schedule) Validate(g *graph.Graph) error {
	if len(s.Stage) != g.NumNodes() {
		return fmt.Errorf("sched: schedule covers %d nodes, graph has %d", len(s.Stage), g.NumNodes())
	}
	for v, st := range s.Stage {
		if st < 0 || st >= s.NumStages {
			return fmt.Errorf("sched: node %d assigned to stage %d outside [0,%d)", v, st, s.NumStages)
		}
		for _, w := range g.Succ(v) {
			if s.Stage[w] < st {
				return fmt.Errorf("sched: dependency violation on edge (%d,%d): stages %d > %d", v, w, st, s.Stage[w])
			}
		}
	}
	return nil
}

// SameStageChildrenOK reports whether every node's children share a stage —
// the Edge TPU hardware constraint enforced by post-inference processing.
func (s Schedule) SameStageChildrenOK(g *graph.Graph) bool {
	for v := 0; v < g.NumNodes(); v++ {
		succ := g.Succ(v)
		for i := 1; i < len(succ); i++ {
			if s.Stage[succ[i]] != s.Stage[succ[0]] {
				return false
			}
		}
	}
	return true
}

// Cost is the scheduling objective, compared lexicographically:
// peak per-stage parameter memory first (parameter-cache pressure), then
// cross-stage activation traffic (USB communication).
type Cost struct {
	// PeakParamBytes is max over stages of the summed parameter bytes.
	PeakParamBytes int64
	// CrossBytes is the total activation bytes crossing stage boundaries.
	CrossBytes int64
}

// Less reports whether c is strictly better than o.
func (c Cost) Less(o Cost) bool {
	if c.PeakParamBytes != o.PeakParamBytes {
		return c.PeakParamBytes < o.PeakParamBytes
	}
	return c.CrossBytes < o.CrossBytes
}

func (c Cost) String() string {
	return fmt.Sprintf("peak=%.3fMiB cross=%.3fMiB",
		float64(c.PeakParamBytes)/(1<<20), float64(c.CrossBytes)/(1<<20))
}

// StageParamBytes returns the summed parameter bytes per stage.
func (s Schedule) StageParamBytes(g *graph.Graph) []int64 {
	mem := make([]int64, s.NumStages)
	for v, st := range s.Stage {
		mem[st] += g.Node(v).ParamBytes
	}
	return mem
}

// Evaluate computes the objective of the schedule on g. It is a solver
// hot path (every branch-and-bound leaf, every portfolio member, every
// serving request evaluates at least once), so the per-stage accumulator
// lives on the stack for realistic pipeline lengths and the call allocates
// nothing.
func (s Schedule) Evaluate(g *graph.Graph) Cost {
	var c Cost
	var stack [16]int64
	var mem []int64
	if s.NumStages <= len(stack) {
		mem = stack[:s.NumStages]
	} else {
		mem = make([]int64, s.NumStages)
	}
	for v, st := range s.Stage {
		mem[st] += g.Node(v).ParamBytes
	}
	for _, m := range mem {
		if m > c.PeakParamBytes {
			c.PeakParamBytes = m
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		crossed := false
		for _, w := range g.Succ(v) {
			if s.Stage[w] != s.Stage[v] {
				crossed = true
				break
			}
		}
		if crossed {
			// The producing stage sends v's output tensor once over USB,
			// regardless of how many downstream stages consume it (the
			// host fans it out).
			c.CrossBytes += g.Node(v).OutBytes
		}
	}
	return c
}

// SequenceToSchedule is the paper's ρ: map an emitted node order π to a
// stage assignment for an n-stage pipeline. The walk opens stages greedily
// against the balanced parameter budget B = ceil(total/n); the final stage
// absorbs the remainder. No dependency knowledge is used here — repairs
// happen in PostProcess, mirroring the paper's split between the RL policy
// and the deterministic deployment pass.
func SequenceToSchedule(g *graph.Graph, seq []int, numStages int) (Schedule, error) {
	n := g.NumNodes()
	if err := validateSequence(g, seq, numStages); err != nil {
		return Schedule{}, err
	}

	total := g.TotalParamBytes()
	budget := (total + int64(numStages) - 1) / int64(numStages)
	if budget < 1 {
		budget = 1
	}
	s := NewSchedule(n, numStages)
	stage, acc := 0, int64(0)
	for _, v := range seq {
		p := g.Node(v).ParamBytes
		if acc > 0 && acc+p > budget && stage < numStages-1 {
			stage++
			acc = 0
		}
		s.Stage[v] = stage
		acc += p
	}
	return s, nil
}

// SequenceToScheduleDP is the stronger realization of ρ used by default
// at deployment: instead of the greedy budget walk it computes the
// minimum-peak-memory segmentation of the emitted order into numStages
// contiguous segments by dynamic programming (O(|V|²·numStages)). The
// paper leaves ρ abstract ("the scheduling algorithm w.r.t. the specific
// Edge TPU"); the DP keeps ρ deterministic and polynomial while letting
// the learned node order express schedule quality fully. The greedy
// budget walk (SequenceToSchedule) is the compiler's ρ: GreedyBalanced
// runs it over a topological order.
func SequenceToScheduleDP(g *graph.Graph, seq []int, numStages int) (Schedule, error) {
	// Validate via the shared path, then resegment optimally.
	if err := validateSequence(g, seq, numStages); err != nil {
		return Schedule{}, err
	}
	return dpSegment(g, seq, numStages), nil
}

// GreedyBalanced emulates the Edge TPU compiler's pipeline partitioner
// (coral's --num_segments splitter, the paper's "heuristic method"): the
// greedy budget walk over g's deterministic topological order. Like every
// ρ it is monotone, not deployable, until PostProcess repairs it. It
// panics when numStages is below 1.
func GreedyBalanced(g *graph.Graph, numStages int) Schedule {
	s, err := SequenceToSchedule(g, g.TopoView(), numStages)
	if err != nil {
		// Topo order over the graph's own nodes cannot fail validation.
		panic("sched: GreedyBalanced: " + err.Error())
	}
	return s
}

// DPBudget is the minimum-peak-memory segmentation of g's deterministic
// topological order (memory-aware adaptive budgeting): exact over that one
// order, it is the strongest classic heuristic and the exact solver's
// incumbent seed. Like GreedyBalanced, it needs PostProcess and panics
// when numStages is below 1.
func DPBudget(g *graph.Graph, numStages int) Schedule {
	s, err := SequenceToScheduleDP(g, g.TopoView(), numStages)
	if err != nil {
		panic("sched: DPBudget: " + err.Error())
	}
	return s
}

// validateSequence checks that seq is a permutation of g's nodes and that
// numStages is positive — the shared precondition of both ρ realizations.
// The visited buffer is pooled so repeated decode/serve calls allocate
// nothing here.
func validateSequence(g *graph.Graph, seq []int, numStages int) error {
	n := g.NumNodes()
	if len(seq) != n {
		return fmt.Errorf("sched: sequence length %d, graph has %d nodes", len(seq), n)
	}
	if numStages < 1 {
		return fmt.Errorf("sched: numStages = %d", numStages)
	}
	sc := dpPool.Get().(*dpScratch)
	defer releaseDP(sc)
	seen := growBool(&sc.seen, n)
	for i := range seen {
		seen[i] = false
	}
	for _, v := range seq {
		if v < 0 || v >= n {
			return fmt.Errorf("sched: sequence element %d out of range", v)
		}
		if seen[v] {
			return fmt.Errorf("sched: node %d repeated in sequence", v)
		}
		seen[v] = true
	}
	return nil
}

// dpScratch is the pooled working storage of dpSegment and
// validateSequence; one solve's tables are reused by the next instead of
// re-allocated, which matters because the DP runs on every ρ application —
// each RL decode, each heur backend call, every serving request that
// misses the cache.
type dpScratch struct {
	prefix []int64
	prev   []int64
	cur    []int64
	cut    []int32
	seen   []bool
}

var dpPool = sync.Pool{New: func() any { return new(dpScratch) }}

// reset truncates the pooled tables before the scratch goes back to the
// pool: capacity is retained so the next solve reuses the allocations,
// but no stale window of a previous solve's values stays reachable.
func (sc *dpScratch) reset() {
	sc.prefix = sc.prefix[:0]
	sc.prev = sc.prev[:0]
	sc.cur = sc.cur[:0]
	sc.cut = sc.cut[:0]
	sc.seen = sc.seen[:0]
}

// releaseDP resets sc and returns it to the pool.
func releaseDP(sc *dpScratch) {
	sc.reset()
	dpPool.Put(sc)
}

func grow64(buf *[]int64, n int) []int64 {
	if cap(*buf) < n {
		*buf = make([]int64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func grow32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func growBool(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// dpSegment optimally cuts order into numStages contiguous segments
// minimizing the peak segment parameter load.
//
// It exploits two exact monotonicity properties of the min-max partition
// recurrence dp[k][j] = min_i max(dp[k-1][i], prefix[j]-prefix[i]) that
// hold whenever node weights are non-negative:
//
//  1. each dp row is non-decreasing in j, so once dp[k-1][i] reaches the
//     running minimum no larger i can strictly improve it, and
//  2. the leftmost minimizer is non-decreasing in j (strict dominance of
//     i2 over i1 < i2 persists as j grows), so the scan for column j can
//     start at column j-1's minimizer.
//
// Together these turn the inner loop into an amortized two-pointer walk —
// O(|V|·numStages) instead of O(|V|²·numStages) — while selecting exactly
// the cuts the quadratic reference selects (smallest minimizer, strict
// improvement), so the returned schedule is bit-identical to the
// reference's (dpSegmentRef, in the tests). graph.Build guarantees the
// non-negative weights.
func dpSegment(g *graph.Graph, order []int, numStages int) Schedule {
	n := len(order)
	sc := dpPool.Get().(*dpScratch)
	defer releaseDP(sc)

	prefix := grow64(&sc.prefix, n+1)
	prefix[0] = 0
	for i, v := range order {
		prefix[i+1] = prefix[i] + g.Node(v).ParamBytes
	}

	const inf = int64(1) << 62
	prev := grow64(&sc.prev, n+1)
	cur := grow64(&sc.cur, n+1)
	cut := grow32(&sc.cut, (numStages+1)*(n+1))
	for i := range prev {
		prev[i] = inf
	}
	prev[0] = 0
	for k := 1; k <= numStages; k++ {
		cutRow := cut[k*(n+1) : (k+1)*(n+1)]
		lo := 0
		for j := 0; j <= n; j++ {
			best := prev[lo]
			if sm := prefix[j] - prefix[lo]; sm > best {
				best = sm
			}
			arg := lo
			for i := lo + 1; i <= j; i++ {
				if prev[i] >= best {
					break // rows are monotone: no larger i can improve
				}
				f := prev[i]
				if sm := prefix[j] - prefix[i]; sm > f {
					f = sm
				}
				if f < best {
					best, arg = f, i
				}
			}
			cur[j] = best
			cutRow[j] = int32(arg)
			lo = arg
		}
		prev, cur = cur, prev
	}

	s := NewSchedule(g.NumNodes(), numStages)
	j := n
	for k := numStages; k >= 1; k-- {
		i := int(cut[k*(n+1)+j])
		for t := i; t < j; t++ {
			s.Stage[order[t]] = k - 1
		}
		j = i
	}
	return s
}

// ScheduleToSequence is the inverse direction used to derive the ground
// truth γ: read the schedule out stage by stage, nodes within a stage in
// topological order. The result is always a valid linear extension when the
// schedule satisfies monotonicity.
func ScheduleToSequence(g *graph.Graph, s Schedule) []int {
	type key struct{ stage, pos int }
	pos := make([]int, g.NumNodes())
	for i, v := range g.TopoView() {
		pos[v] = i
	}
	seq := make([]int, g.NumNodes())
	for i := range seq {
		seq[i] = i
	}
	sort.Slice(seq, func(a, b int) bool {
		ka := key{s.Stage[seq[a]], pos[seq[a]]}
		kb := key{s.Stage[seq[b]], pos[seq[b]]}
		if ka.stage != kb.stage {
			return ka.stage < kb.stage
		}
		return ka.pos < kb.pos
	})
	return seq
}

// Quotient is a graph's sibling-class quotient (see graph.Quotient).
// A schedule is deployable (Validate and SameStageChildrenOK) exactly when
// it is constant on classes and monotone along the quotient's edges, so the
// monotone stage assignments of the quotient, expanded, ARE the deployable
// schedules of the graph. PostProcess repairs into that space, the exact
// family searches it and the RL decoders decode it, all reading the one
// quotient the graph computes on first use.
type Quotient struct{ *graph.Quotient }

// NumClasses returns the number of classes.
func (q Quotient) NumClasses() int { return len(q.ParamBytes) }

// Succ returns the successor classes of c, each listed once. The returned
// slice must not be modified.
func (q Quotient) Succ(c int) []int { return q.Graph().Succ(c) }

// OneOrder reports whether the quotient has exactly one linear extension,
// which is then 0, 1, …, n−1: every class c < n−1 has c+1 among Succ(c).
// Classes are numbered topologically, so 0..n−1 is always an extension; if
// some c lacks the edge to c+1, no path joins them either (a path from c
// to c+1 would pass through a class numbered between the two), and
// swapping them gives a second one. It takes O(classes + class edges).
func (q Quotient) OneOrder() bool {
	for c := 0; c+1 < q.NumClasses(); c++ {
		if !slices.Contains(q.Succ(c), c+1) {
			return false
		}
	}
	return true
}

// Expand maps a stage assignment of the classes to the schedule of the
// underlying graph that puts every node in its class's stage.
func (q Quotient) Expand(s Schedule) Schedule {
	out := NewSchedule(len(q.ClassOf), s.NumStages)
	for v, c := range q.ClassOf {
		out.Stage[v] = s.Stage[c]
	}
	return out
}

// Restrict maps a schedule of the underlying graph to a stage assignment
// of the classes: each class takes the earliest stage among its members.
// On a deployable schedule, which is constant on classes, it is the
// inverse of Expand.
func (q Quotient) Restrict(s Schedule) Schedule {
	out := Schedule{NumStages: s.NumStages, Stage: make([]int, q.NumClasses())}
	for c := range out.Stage {
		out.Stage[c] = s.NumStages // sentinel: min over members below
	}
	for v, c := range q.ClassOf {
		out.Stage[c] = min(out.Stage[c], s.Stage[v])
	}
	return out
}

// Condense returns g's sibling-class quotient, which g computes once, on
// first use (graph.Graph.Quotient); later calls allocate nothing.
func Condense(g *graph.Graph) Quotient { return Quotient{g.Quotient()} }

// PostProcess is the paper's deterministic post-inference repair, made
// provably terminating. Two hardware rules are enforced with minimal
// change to the predicted stages:
//
//  1. dependency violations are corrected "by simply pushing the involved
//     node forward" (to a stage no earlier than every parent), and
//  2. all children of any node must share a pipeline stage, unified onto
//     "the earliest predicted stage" among them.
//
// Both rules live in the graph's sibling-class quotient, which it reads
// from the graph's memo (see Condense): each class takes max(its earliest
// predicted stage, stages of all predecessor classes), in the quotient's
// topological order. The output always satisfies Validate and
// SameStageChildrenOK, and a schedule that already does is returned
// unchanged.
func PostProcess(g *graph.Graph, s Schedule) Schedule {
	q := Condense(g)

	// Earliest predicted stage per class (the paper's rule 2), clamped
	// into range: clamping each member first would pick the same stage.
	r := q.Restrict(s)
	stage := r.Stage
	for c, st := range stage {
		stage[c] = max(0, min(st, s.NumStages-1))
	}
	// Classes are numbered topologically: one ascending sweep pushes every
	// class forward past its predecessors.
	for c := range stage {
		for _, d := range q.Succ(c) {
			if stage[c] > stage[d] {
				stage[d] = stage[c]
			}
		}
	}
	return q.Expand(r)
}

// OneHot returns the |V| x n one-hot stage matrix flattened row-major; the
// cosine similarity of two such encodings is the paper's reward (Eq. 3).
func (s Schedule) OneHot() []float64 {
	out := make([]float64, len(s.Stage)*s.NumStages)
	for v, st := range s.Stage {
		out[v*s.NumStages+st] = 1
	}
	return out
}

// Agreement returns the fraction of nodes assigned to the same stage in
// both schedules; for one-hot encodings this equals cosine similarity.
func Agreement(a, b Schedule) float64 {
	if len(a.Stage) != len(b.Stage) || len(a.Stage) == 0 {
		return 0
	}
	same := 0
	for i := range a.Stage {
		if a.Stage[i] == b.Stage[i] {
			same++
		}
	}
	return float64(same) / float64(len(a.Stage))
}

// RepairSequence is the sequence-level half of post-inference processing:
// dependency violations in the emitted order are corrected "by simply
// pushing the involved node forward" — each node is deferred until all of
// its parents have been emitted, and deferred nodes re-enter in emitted-
// priority order. The result is the linear extension closest to the
// emitted order under that rule (a priority topological sort keyed by
// emitted position), leaving only the children-same-stage rule for
// PostProcess.
func RepairSequence(g *graph.Graph, seq []int) ([]int, error) {
	n := g.NumNodes()
	if len(seq) != n {
		return nil, fmt.Errorf("sched: sequence length %d, graph has %d nodes", len(seq), n)
	}
	prio := make([]int, n)
	seen := make([]bool, n)
	for i, v := range seq {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("sched: sequence element %d out of range", v)
		}
		if seen[v] {
			return nil, fmt.Errorf("sched: node %d repeated in sequence", v)
		}
		seen[v] = true
		prio[v] = i
	}

	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(g.Pred(v))
	}
	// Min-heap of ready nodes keyed by emitted priority.
	heap := make([]int, 0, n)
	less := func(a, b int) bool { return prio[heap[a]] < prio[heap[b]] }
	push := func(v int) {
		heap = append(heap, v)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if !less(i, p) {
				break
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	pop := func() int {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(heap) && less(l, m) {
				m = l
			}
			if r < len(heap) && less(r, m) {
				m = r
			}
			if m == i {
				break
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
		return top
	}

	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			push(v)
		}
	}
	out := make([]int, 0, n)
	for len(heap) > 0 {
		v := pop()
		out = append(out, v)
		for _, w := range g.Succ(v) {
			indeg[w]--
			if indeg[w] == 0 {
				push(w)
			}
		}
	}
	if len(out) != n {
		return nil, fmt.Errorf("sched: graph has a cycle")
	}
	return out, nil
}
