package maxflow

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func TestSingleEdge(t *testing.T) {
	g := NewGraph(2)
	e := g.AddEdge(0, 1, 3.5)
	r := g.Run(0, 1)
	if r.Value != 3.5 || r.Flow(e) != 3.5 {
		t.Fatalf("flow = %v, edge = %v", r.Value, r.Flow(e))
	}
}

func TestClassicNetwork(t *testing.T) {
	// CLRS-style example: max flow 23.
	g := NewGraph(6)
	s, v1, v2, v3, v4, tt := 0, 1, 2, 3, 4, 5
	g.AddEdge(s, v1, 16)
	g.AddEdge(s, v2, 13)
	g.AddEdge(v1, v3, 12)
	g.AddEdge(v2, v1, 4)
	g.AddEdge(v2, v4, 14)
	g.AddEdge(v3, v2, 9)
	g.AddEdge(v3, tt, 20)
	g.AddEdge(v4, v3, 7)
	g.AddEdge(v4, tt, 4)
	r := g.Run(s, tt)
	if math.Abs(r.Value-23) > 1e-9 {
		t.Fatalf("max flow = %v, want 23", r.Value)
	}
}

func TestDisconnected(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 5)
	r := g.Run(0, 2)
	if r.Value != 0 {
		t.Fatalf("flow across disconnected graph = %v", r.Value)
	}
}

func TestBipartiteMatching(t *testing.T) {
	// Perfect matching on a 3x3 bipartite graph with unit capacities.
	// Left 1..3, right 4..6, source 0, sink 7.
	g := NewGraph(8)
	for l := 1; l <= 3; l++ {
		g.AddEdge(0, l, 1)
		g.AddEdge(l+3, 7, 1)
	}
	g.AddEdge(1, 4, 1)
	g.AddEdge(1, 5, 1)
	g.AddEdge(2, 4, 1)
	g.AddEdge(3, 6, 1)
	r := g.Run(0, 7)
	if math.Abs(r.Value-3) > 1e-9 {
		t.Fatalf("matching size = %v, want 3", r.Value)
	}
}

func TestHallViolation(t *testing.T) {
	// Two left vertices share one right vertex: matching 1.
	g := NewGraph(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 4, 1)
	r := g.Run(0, 4)
	if math.Abs(r.Value-1) > 1e-9 {
		t.Fatalf("flow = %v, want 1", r.Value)
	}
}

func TestMinCut(t *testing.T) {
	// s -3-> a -1-> t : cut is the middle edge.
	g := NewGraph(3)
	g.AddEdge(0, 1, 3)
	g.AddEdge(1, 2, 1)
	r := g.Run(0, 2)
	cut := r.MinCutSource(0)
	if !cut[0] || !cut[1] || cut[2] {
		t.Fatalf("cut = %v, want {s,a}", cut)
	}
}

func TestFlowConservationProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(10)
		g := NewGraph(n)
		type eref struct{ id, u, v int }
		var refs []eref
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			id := g.AddEdge(u, v, float64(rng.Intn(10)))
			refs = append(refs, eref{id, u, v})
		}
		r := g.Run(0, n-1)
		// Conservation at internal nodes; capacity respected everywhere.
		net := make([]float64, n)
		for _, e := range refs {
			f := r.Flow(e.id)
			if f < -Eps || f > g.edges[e.id].cap+Eps {
				return false
			}
			net[e.u] += f
			net[e.v] -= f
		}
		for v := 1; v < n-1; v++ {
			if math.Abs(net[v]) > 1e-6 {
				return false
			}
		}
		// Value equals net outflow of source.
		if math.Abs(net[0]-r.Value) > 1e-6 {
			return false
		}
		// Max-flow equals min-cut capacity.
		cut := r.MinCutSource(0)
		if cut[n-1] {
			// Sink reachable would mean augmenting path left.
			return false
		}
		cutCap := 0.0
		for _, e := range refs {
			if cut[e.u] && !cut[e.v] {
				cutCap += g.edges[e.id].cap
			}
		}
		return math.Abs(cutCap-r.Value) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPanics(t *testing.T) {
	g := NewGraph(2)
	for _, f := range []func(){
		func() { g.AddEdge(-1, 0, 1) },
		func() { g.AddEdge(0, 5, 1) },
		func() { g.AddEdge(0, 1, -2) },
		func() { g.Run(1, 1) },
		func() { g.SetCapacity(g.AddEdge(0, 1, 1), math.NaN()) },
		func() { g.SetCapacity(0, -1) },
		func() { g.SetCapacity(1, 1) }, // a reverse edge
		func() { g.SetCapacity(len(g.edges), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestSetCapacityMatchesRebuild: a network re-run after SetCapacity routes
// exactly the flow of one built from scratch with those capacities, and
// the first Run's capacities do not leak into the second.
func TestSetCapacityMatchesRebuild(t *testing.T) {
	const m = 40
	build := func(scale float64) (*Graph, []int) {
		g := NewGraph(2*m + 2)
		src := make([]int, m)
		for j := 0; j < m; j++ {
			src[j] = g.AddEdge(2*m, j, scale*3/float64(j+1))
			for i := j; i < j+3; i++ {
				g.AddEdge(j, m+i%m, math.Inf(1))
			}
		}
		for i := 0; i < m; i++ {
			g.AddEdge(m+i, 2*m+1, 1)
		}
		return g, src
	}
	g, src := build(1)
	g.Run(2*m, 2*m+1)
	for _, scale := range []float64{0.25, 4, 0} {
		for j, id := range src {
			g.SetCapacity(id, scale*3/float64(j+1))
		}
		fresh, _ := build(scale)
		got, want := g.Run(2*m, 2*m+1), fresh.Run(2*m, 2*m+1)
		if got.Value != want.Value || !reflect.DeepEqual(got.flow, want.flow) {
			t.Fatalf("scale %v: re-run flow %v, rebuilt %v", scale, got.Value, want.Value)
		}
	}
}

// ringNetwork is the max-load feasibility network at m machines: source →
// m primaries → the k = 3 machines of each primary's ring arc → sink.
func ringNetwork(m int) (g *Graph, s, t int) {
	s, t = 2*m, 2*m+1
	g = NewGraph(2*m + 2)
	for j := 0; j < m; j++ {
		g.AddEdge(s, j, 3/float64(j+1))
		for i := j; i < j+3; i++ {
			g.AddEdge(j, m+i%m, math.Inf(1))
		}
	}
	for i := 0; i < m; i++ {
		g.AddEdge(m+i, t, 1)
	}
	return g, s, t
}

// TestRunAllocsIndependentOfSize: a Run allocates the same number of times
// on a 32-node network as on a 2,002-node one — its working arrays, not
// per-node or per-phase buffers. The process's first garbage collection
// starts the runtime's mark workers, which allocate; a collection before
// measuring keeps that out of the count (without it, the m = 1000 count
// read 8 once per test binary under -count=40).
func TestRunAllocsIndependentOfSize(t *testing.T) {
	runtime.GC()
	allocs := func(m int) float64 {
		g, s, sink := ringNetwork(m)
		return testing.AllocsPerRun(5, func() { g.Run(s, sink) })
	}
	small, large := allocs(15), allocs(1000)
	if small != large {
		t.Fatalf("Run allocates %v times at m = 15 and %v at m = 1000", small, large)
	}
	if small > 8 {
		t.Fatalf("Run allocates %v times, want its 7 working arrays and result", small)
	}
}
