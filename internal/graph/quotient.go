package graph

// Quotient is a built graph's sibling-class quotient: the DAG over the
// node classes that the Edge TPU's children-same-stage rule forces to
// share a pipeline stage. The rule induces must-be-equal classes over
// nodes (children of a common parent, closed transitively); monotonicity
// between classes may then force further equalities, which appear as
// cycles in the class-level constraint graph and are merged too. What is
// left is acyclic; sched.Quotient gives it its scheduling meaning.
type Quotient struct {
	// ClassOf maps each node to its class. Classes are numbered in a
	// topological order of the quotient: every edge runs from a lower class
	// to a higher one.
	ClassOf []int
	// ParamBytes is the summed parameter footprint of each class.
	ParamBytes []int64

	dag *Graph
}

// Graph returns the quotient as a graph with the name of the graph it
// came from: node c weighs class c's parameters, and its successors are
// the classes some edge out of class c reaches, each listed once.
func (q *Quotient) Graph() *Graph { return q.dag }

// Quotient returns g's sibling-class quotient. It is computed on the
// first call, once, and every later call returns the same value, which
// like g must not be modified. A Clone starts without it.
func (g *Graph) Quotient() *Quotient {
	g.mustBuilt()
	g.quotOnce.Do(func() { g.quot = condense(g) })
	return g.quot
}

// condense computes the sibling-class quotient of g: union-find over every
// node's successor group, then SCC condensation of the class-level
// constraint graph.
func condense(g *Graph) *Quotient {
	n := g.NumNodes()

	// Sibling classes. The smaller root wins every union, so a class's root
	// is its first node and one ascending pass both flattens the forest and
	// numbers the classes.
	parent := make([]int, n)
	for v := range parent {
		parent[v] = v
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for v := 0; v < n; v++ {
		succ := g.Succ(v)
		for i := 1; i < len(succ); i++ {
			if a, b := find(succ[0]), find(succ[i]); a < b {
				parent[b] = a
			} else {
				parent[a] = b
			}
		}
	}
	classOf := make([]int, n)
	nc := 0
	for v := 0; v < n; v++ {
		if r := find(v); r == v {
			classOf[v] = nc
			nc++
		} else {
			classOf[v] = classOf[r]
		}
	}

	// All children of a node share a class, so a node contributes at most
	// one class-level edge: its class to its children's.
	edge := func(u int) (a, b int, ok bool) {
		succ := g.Succ(u)
		if len(succ) == 0 {
			return 0, 0, false
		}
		a, b = classOf[u], classOf[succ[0]]
		return a, b, a != b
	}
	groupEdges := func(nc int) (start, succ []int) {
		start = make([]int, nc+1)
		for u := 0; u < n; u++ {
			if a, _, ok := edge(u); ok {
				start[a+1]++
			}
		}
		for c := 0; c < nc; c++ {
			start[c+1] += start[c]
		}
		succ = make([]int, start[nc])
		// Filling advances start[a] to the end of a's range, which is where
		// a+1's begins: shift back afterwards.
		for u := 0; u < n; u++ {
			if a, b, ok := edge(u); ok {
				succ[start[a]] = b
				start[a]++
			}
		}
		copy(start[1:], start[:nc])
		start[0] = 0
		return start, succ
	}

	// SCC condensation merges classes forced equal by A<=B<=A chains.
	// Tarjan numbers components in reverse topological order; flipping the
	// index makes the class numbering topological.
	comp, ncomp := tarjanSCC(groupEdges(nc))
	for v := range classOf {
		classOf[v] = ncomp - 1 - comp[classOf[v]]
	}
	nc = ncomp

	// The quotient's edges, duplicates dropped in place: stamp[b] == a+1
	// marks b as already listed under a.
	start, succ := groupEdges(nc)
	stamp := make([]int, nc)
	w := 0
	for a := 0; a < nc; a++ {
		lo, hi := start[a], start[a+1]
		start[a] = w
		for _, b := range succ[lo:hi] {
			if stamp[b] != a+1 {
				stamp[b] = a + 1
				succ[w] = b
				w++
			}
		}
	}
	start[nc] = w

	param := make([]int64, nc)
	nodes := make([]Node, nc)
	for v, c := range classOf {
		param[c] += g.Node(v).ParamBytes
	}
	for c := range nodes {
		nodes[c].ParamBytes = param[c]
	}
	dag, err := FromCSR(g.Name, nodes, start, succ[:w])
	if err != nil {
		// Acyclic and duplicate-free by construction; the class sums fit
		// because g is built.
		panic("graph: quotient: " + err.Error())
	}
	return &Quotient{ClassOf: classOf, ParamBytes: param, dag: dag}
}

// tarjanSCC returns the strongly-connected-component index of each vertex
// of the graph whose vertex v has successors adj[start[v]:start[v+1]], and
// the number of components. Indices are a reverse topological order of the
// condensation. Iterative to stay safe on deep graphs.
func tarjanSCC(start, adj []int) (comp []int, ncomp int) {
	n := len(start) - 1
	// index is the DFS discovery number plus one (zero: unvisited), next the
	// cursor into each vertex's successors. A visited vertex without a
	// component yet is exactly one that is still on the stack.
	const none = -1
	work := make([]int, 5*n)
	index, low, next := work[:n], work[n:2*n], work[2*n:3*n]
	stack, call := work[3*n:3*n:4*n], work[4*n:4*n:5*n]
	comp = make([]int, n)
	for i := range comp {
		comp[i] = none
	}
	visited := 0
	for root := 0; root < n; root++ {
		if index[root] != 0 {
			continue
		}
		call = append(call, root)
		for len(call) > 0 {
			v := call[len(call)-1]
			if index[v] == 0 {
				visited++
				index[v], low[v] = visited, visited
				next[v] = start[v]
				stack = append(stack, v)
			}
			if next[v] < start[v+1] {
				w := adj[next[v]]
				next[v]++
				if index[w] == 0 {
					call = append(call, w)
				} else if comp[w] == none && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				if p := call[len(call)-1]; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	return comp, ncomp
}
