package sched

import "respect/internal/graph"

// dpSegmentRef is the quadratic reference implementation of dpSegment: a
// direct materialization of the recurrence with smallest-index tie-breaks.
// The differential tests pin dpSegment's output to it bit for bit.
func dpSegmentRef(g *graph.Graph, order []int, numStages int) Schedule {
	n := len(order)
	prefix := make([]int64, n+1)
	for i, v := range order {
		prefix[i+1] = prefix[i] + g.Node(v).ParamBytes
	}
	const inf = int64(1) << 62
	dp := make([][]int64, numStages+1)
	cut := make([][]int, numStages+1)
	for k := range dp {
		dp[k] = make([]int64, n+1)
		cut[k] = make([]int, n+1)
		for i := range dp[k] {
			dp[k][i] = inf
		}
	}
	dp[0][0] = 0
	for k := 1; k <= numStages; k++ {
		for i := 0; i <= n; i++ {
			if dp[k-1][i] == inf {
				continue
			}
			for j := i; j <= n; j++ {
				peak := dp[k-1][i]
				if sm := prefix[j] - prefix[i]; sm > peak {
					peak = sm
				}
				if peak < dp[k][j] {
					dp[k][j] = peak
					cut[k][j] = i
				}
			}
		}
	}
	s := NewSchedule(g.NumNodes(), numStages)
	j := n
	for k := numStages; k >= 1; k-- {
		i := cut[k][j]
		for t := i; t < j; t++ {
			s.Stage[order[t]] = k - 1
		}
		j = i
	}
	return s
}

// postProcessRef is PostProcess as it stood before Condense was lifted out
// of it: union-find, class graph and SCC condensation over maps and slices
// of slices, then a Kahn pass. FuzzCondense and the zoo differential hold
// the dense-array rewrite to it bit for bit.
func postProcessRef(g *graph.Graph, s Schedule) Schedule {
	n := g.NumNodes()
	uf := newRefUnionFind(n)
	for v := 0; v < n; v++ {
		succ := g.Succ(v)
		for i := 1; i < len(succ); i++ {
			uf.union(succ[0], succ[i])
		}
	}

	// Class-level constraint edges from node-level edges.
	classOf := make([]int, n)
	classes := map[int]int{} // root -> dense class index
	for v := 0; v < n; v++ {
		r := uf.find(v)
		if _, ok := classes[r]; !ok {
			classes[r] = len(classes)
		}
		classOf[v] = classes[r]
	}
	nc := len(classes)
	adj := make([][]int, nc)
	for u := 0; u < n; u++ {
		for _, v := range g.Succ(u) {
			cu, cv := classOf[u], classOf[v]
			if cu != cv {
				adj[cu] = append(adj[cu], cv)
			}
		}
	}

	// SCC condensation merges classes forced equal by A<=B<=A chains.
	comp := refTarjanSCC(adj)
	ncc := 0
	for _, c := range comp {
		if c+1 > ncc {
			ncc = c + 1
		}
	}
	cadj := make([][]int, ncc)
	indeg := make([]int, ncc)
	seen := map[[2]int]bool{}
	for u := 0; u < nc; u++ {
		for _, v := range adj[u] {
			a, b := comp[u], comp[v]
			if a != b && !seen[[2]int{a, b}] {
				seen[[2]int{a, b}] = true
				cadj[a] = append(cadj[a], b)
				indeg[b]++
			}
		}
	}

	// Earliest predicted stage per condensed class (the paper's rule 2).
	floor := make([]int, ncc)
	for i := range floor {
		floor[i] = s.NumStages // sentinel: min over members below
	}
	for v := 0; v < n; v++ {
		c := comp[classOf[v]]
		st := s.Stage[v]
		if st < 0 {
			st = 0
		}
		if st >= s.NumStages {
			st = s.NumStages - 1
		}
		if st < floor[c] {
			floor[c] = st
		}
	}

	// Kahn order over condensed classes; push forward past predecessors.
	stage := make([]int, ncc)
	queue := make([]int, 0, ncc)
	for c := 0; c < ncc; c++ {
		if indeg[c] == 0 {
			queue = append(queue, c)
			stage[c] = floor[c]
		}
	}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for _, d := range cadj[c] {
			if stage[c] > floor[d] {
				floor[d] = stage[c]
			}
			indeg[d]--
			if indeg[d] == 0 {
				stage[d] = floor[d]
				queue = append(queue, d)
			}
		}
	}

	out := NewSchedule(n, s.NumStages)
	for v := 0; v < n; v++ {
		out.Stage[v] = stage[comp[classOf[v]]]
	}
	return out
}

type refUnionFind struct {
	parent []int
	rank   []int
}

func newRefUnionFind(n int) *refUnionFind {
	uf := &refUnionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *refUnionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *refUnionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
}

// refTarjanSCC returns, for each vertex, its strongly-connected-component
// index; indices are a reverse topological order of the condensation, so
// callers re-derive edges rather than relying on index order. Iterative to
// stay safe on deep graphs.
func refTarjanSCC(adj [][]int) []int {
	n := len(adj)
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp := make([]int, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int
	next := 0
	ncomp := 0

	type frame struct{ v, ei int }
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		call := []frame{{root, 0}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			if f.ei < len(adj[f.v]) {
				w := adj[f.v][f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{w, 0})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	return comp
}
