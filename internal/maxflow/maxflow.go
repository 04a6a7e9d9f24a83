// Package maxflow implements Dinic's maximum-flow algorithm on directed
// graphs with float64 capacities. Its minimum cuts solve the max-load
// analysis (Section 7.2 of the paper), and the offline unit-task optimal
// scheduler uses it for bipartite matching over machine/slot pairs.
package maxflow

import "math"

// Eps is the capacity tolerance below which residual capacity counts as
// zero. Capacities used by the library are either integers or sums of at
// most m popularity weights, so 1e-12 is far below any meaningful value.
const Eps = 1e-12

// Graph is a flow network under construction. Nodes are dense integers
// 0..NumNodes-1.
type Graph struct {
	n     int
	heads [][]int // adjacency: indices into edges
	edges []edge
}

type edge struct {
	to  int
	cap float64
}

// NewGraph creates a network with n nodes and no edges.
func NewGraph(n int) *Graph {
	return &Graph{n: n, heads: make([][]int, n)}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// AddEdge adds a directed edge from u to v with the given capacity and
// returns its identifier (usable with Flow after a Run). The reverse
// residual edge is created automatically with zero capacity. Negative
// capacities and out-of-range nodes panic: they are programming errors.
func (g *Graph) AddEdge(u, v int, capacity float64) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic("maxflow: node out of range")
	}
	if capacity < 0 || math.IsNaN(capacity) {
		panic("maxflow: negative or NaN capacity")
	}
	id := len(g.edges)
	g.edges = append(g.edges, edge{to: v, cap: capacity})
	g.edges = append(g.edges, edge{to: u, cap: 0})
	g.heads[u] = append(g.heads[u], id)
	g.heads[v] = append(g.heads[v], id+1)
	return id
}

// Result reports a computed maximum flow.
type Result struct {
	Value float64
	g     *Graph
	flow  []float64
}

// Flow returns the flow routed through edge id (as returned by AddEdge).
func (r *Result) Flow(id int) float64 { return r.flow[id] }

// MinCutSource returns the set of nodes reachable from s in the residual
// network — the source side of a minimum cut.
func (r *Result) MinCutSource(s int) []bool {
	g := r.g
	seen := make([]bool, g.n)
	stack := []int{s}
	seen[s] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range g.heads[u] {
			e := g.edges[id]
			residual := e.cap - r.flowOn(id)
			if residual > Eps && !seen[e.to] {
				seen[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	return seen
}

func (r *Result) flowOn(id int) float64 { return r.flow[id] }

// Run computes the maximum flow from s to t with Dinic's algorithm and
// leaves the graph's capacities untouched (flows are tracked separately so
// the graph can be re-run with different terminals if needed).
func (g *Graph) Run(s, t int) *Result {
	if s == t {
		panic("maxflow: source equals sink")
	}
	flow := make([]float64, len(g.edges))
	level := make([]int, g.n)
	iter := make([]int, g.n)
	total := 0.0

	residual := func(id int) float64 { return g.edges[id].cap - flow[id] }

	bfs := func() bool {
		for i := range level {
			level[i] = -1
		}
		queue := []int{s}
		level[s] = 0
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, id := range g.heads[u] {
				e := g.edges[id]
				if residual(id) > Eps && level[e.to] < 0 {
					level[e.to] = level[u] + 1
					queue = append(queue, e.to)
				}
			}
		}
		return level[t] >= 0
	}

	var dfs func(u int, pushed float64) float64
	dfs = func(u int, pushed float64) float64 {
		if u == t {
			return pushed
		}
		for ; iter[u] < len(g.heads[u]); iter[u]++ {
			id := g.heads[u][iter[u]]
			e := g.edges[id]
			if residual(id) <= Eps || level[e.to] != level[u]+1 {
				continue
			}
			d := dfs(e.to, math.Min(pushed, residual(id)))
			if d > Eps {
				flow[id] += d
				flow[id^1] -= d
				return d
			}
		}
		return 0
	}

	for bfs() {
		for i := range iter {
			iter[i] = 0
		}
		for {
			f := dfs(s, math.Inf(1))
			if f <= Eps {
				break
			}
			total += f
		}
	}
	return &Result{Value: total, g: g, flow: flow}
}
