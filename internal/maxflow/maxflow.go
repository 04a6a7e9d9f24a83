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
// 0..NumNodes-1. Edges are stored in one array in insertion order, each
// followed by its reverse residual edge; Run indexes them per node once.
type Graph struct {
	n     int
	edges []edge
}

type edge struct {
	to  int
	cap float64
}

// NewGraph creates a network with n nodes and no edges.
func NewGraph(n int) *Graph {
	return &Graph{n: n}
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
	g.edges = append(g.edges, edge{to: v, cap: capacity}, edge{to: u, cap: 0})
	return id
}

// SetCapacity changes the capacity of edge id (as returned by AddEdge), so
// that one network can be re-run at new capacities. A negative or NaN
// capacity and an id AddEdge did not return panic, as in AddEdge.
func (g *Graph) SetCapacity(id int, capacity float64) {
	if id < 0 || id >= len(g.edges) || id%2 != 0 {
		panic("maxflow: edge id out of range")
	}
	if capacity < 0 || math.IsNaN(capacity) {
		panic("maxflow: negative or NaN capacity")
	}
	g.edges[id].cap = capacity
}

// adjacency lists every node's residual edges, forward and reverse, in the
// order AddEdge created them: node u's edge ids are adj[start[u]:start[u+1]].
// It is a compressed sparse row index over the edge array.
type adjacency struct {
	start []int
	adj   []int
}

// adjacency builds the index in two passes over the edges; edge id leaves
// node edges[id^1].to, since its partner points back at it.
func (g *Graph) adjacency() adjacency {
	start := make([]int, g.n+1)
	for id := range g.edges {
		start[g.edges[id^1].to+1]++
	}
	for u := 0; u < g.n; u++ {
		start[u+1] += start[u]
	}
	adj := make([]int, len(g.edges))
	for id := range g.edges {
		u := g.edges[id^1].to
		adj[start[u]] = id
		start[u]++ // ends as row u's end, row u+1's start
	}
	copy(start[1:], start[:g.n])
	start[0] = 0
	return adjacency{start: start, adj: adj}
}

func (a adjacency) of(u int) []int { return a.adj[a.start[u]:a.start[u+1]] }

// Result reports a computed maximum flow.
type Result struct {
	Value float64
	g     *Graph
	adj   adjacency
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
		for _, id := range r.adj.of(u) {
			e := g.edges[id]
			residual := e.cap - r.flow[id]
			if residual > Eps && !seen[e.to] {
				seen[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	return seen
}

// Run computes the maximum flow from s to t with Dinic's algorithm and
// leaves the graph's capacities untouched (flows are tracked separately so
// the graph can be re-run with different terminals if needed). Its
// allocations do not depend on the graph's size: the adjacency index, the
// flow, level and edge-cursor arrays and one BFS queue.
func (g *Graph) Run(s, t int) *Result {
	if s == t {
		panic("maxflow: source equals sink")
	}
	d := dinic{
		g: g, t: t, adjacency: g.adjacency(),
		flow:  make([]float64, len(g.edges)),
		level: make([]int, g.n),
		iter:  make([]int, g.n),
		queue: make([]int, 0, g.n),
	}
	total := 0.0
	for d.bfs(s) {
		copy(d.iter, d.start)
		for {
			f := d.dfs(s, math.Inf(1))
			if f <= Eps {
				break
			}
			total += f
		}
	}
	return &Result{Value: total, g: g, adj: d.adjacency, flow: d.flow}
}

// dinic is one Run's working state. iter[u] is the position in adj of the
// next edge node u's blocking-flow search tries.
type dinic struct {
	g *Graph
	t int
	adjacency
	flow  []float64
	level []int
	iter  []int
	queue []int
}

// bfs layers the residual network from s and reports whether t is reached.
func (d *dinic) bfs(s int) bool {
	for i := range d.level {
		d.level[i] = -1
	}
	q := append(d.queue[:0], s)
	d.level[s] = 0
	for h := 0; h < len(q); h++ {
		u := q[h]
		for _, id := range d.of(u) {
			e := d.g.edges[id]
			if e.cap-d.flow[id] > Eps && d.level[e.to] < 0 {
				d.level[e.to] = d.level[u] + 1
				q = append(q, e.to)
			}
		}
	}
	return d.level[d.t] >= 0
}

// dfs pushes at most pushed units along one level-increasing path from u
// to t and returns the amount pushed.
func (d *dinic) dfs(u int, pushed float64) float64 {
	if u == d.t {
		return pushed
	}
	for ; d.iter[u] < d.start[u+1]; d.iter[u]++ {
		id := d.adj[d.iter[u]]
		e := d.g.edges[id]
		residual := e.cap - d.flow[id]
		if residual <= Eps || d.level[e.to] != d.level[u]+1 {
			continue
		}
		f := d.dfs(e.to, math.Min(pushed, residual))
		if f > Eps {
			d.flow[id] += f
			d.flow[id^1] -= f
			return f
		}
	}
	return 0
}
