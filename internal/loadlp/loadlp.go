// Package loadlp computes the theoretical maximum cluster load of
// Section 7.2: the largest arrival rate λ such that, after replication, the
// per-machine load stays below 100% — the optimum λ* of the paper's Linear
// Program (15).
//
// By Hall's condition, λ is sustainable iff λ·P(K) ≤ |N(K)| for every set K
// of primaries, where N(K) = ∪_{j∈K} I_k(j), so
//
//	λ* = min_{K: P(K) > 0} |N(K)| / P(K).
//
// Model.MaxLoad finds that minimum exactly with a parametric minimum cut on
// the max-flow network of LP (15) (internal/maxflow). The test files keep
// the independent solvers it is checked against: the 2^m Hall enumeration,
// the closed forms for disjoint blocks and for no replication, and (in
// internal/lp) the simplex on LP (15) as written.
package loadlp

import (
	"errors"
	"fmt"
	"math"

	"flowsched/internal/core"
	"flowsched/internal/maxflow"
	"flowsched/internal/replicate"
)

// Model is a max-load problem: machine popularity weights P(E_j) and, for
// every primary machine j, the set of machines that may process its work
// after replication (I_k(j) in the paper).
type Model struct {
	M       int
	Weights []float64
	Sets    []core.ProcSet // Sets[j] = I_k(j), never nil
}

// CheckWeights reports why a popularity weight vector cannot define a
// model: it must be non-empty, every weight finite and non-negative, and
// the sum positive and finite.
func CheckWeights(weights []float64) error {
	if len(weights) == 0 {
		return errors.New("loadlp: empty weight vector")
	}
	sum := 0.0
	for j, w := range weights {
		if !(w >= 0) || math.IsInf(w, 1) {
			return fmt.Errorf("loadlp: weight %d is %v, want finite and non-negative", j, w)
		}
		sum += w
	}
	if sum == 0 || math.IsInf(sum, 1) {
		return fmt.Errorf("loadlp: weights sum to %v, want positive and finite", sum)
	}
	return nil
}

// NewModel builds the model for a weight vector and a replication strategy.
// A nil set from the strategy means all machines, as for core.ProcSet. It
// panics on a weight vector CheckWeights rejects.
func NewModel(weights []float64, strategy replicate.Strategy) *Model {
	if err := CheckWeights(weights); err != nil {
		panic(err.Error())
	}
	m := len(weights)
	sets := make([]core.ProcSet, m)
	for j := 0; j < m; j++ {
		sets[j] = strategy.Set(j, m).Resolve(m)
	}
	return &Model{M: m, Weights: weights, Sets: sets}
}

// MaxLoad returns λ*, the optimum of LP (15), by Dinkelbach iteration on
// Hall's ratio, starting from λ = |N(all)| / P(all). At each λ the
// primaries K on the source side of a minimum cut of the feasibility
// network minimize |N(K)| − λ·P(K). If K's ratio is below λ, that minimum
// is negative, so λ is infeasible and K's ratio becomes the next λ.
// Otherwise λ is feasible and, being the ratio of some set, the minimum.
// Each λ is the ratio of one of finitely many sets and the sequence
// strictly decreases, so the loop ends. The network is built once; a step
// only sets its m source capacities.
func (mo *Model) MaxLoad() float64 {
	all := make([]bool, mo.M)
	for j := range all {
		all[j] = true
	}
	lambda, _ := mo.ratio(all)
	g, src := mo.network()
	for {
		mo.setLambda(g, src, lambda)
		cut := g.Run(2*mo.M, 2*mo.M+1).MinCutSource(2 * mo.M)
		r, ok := mo.ratio(cut[:mo.M])
		if !ok || !(r < lambda*(1-1e-12)) {
			return lambda
		}
		lambda = r
	}
}

// ratio returns |N(K)| / P(K) for the primaries K marked in the set,
// skipping those with zero weight; ok is false when no weight remains.
func (mo *Model) ratio(set []bool) (r float64, ok bool) {
	covered := make([]bool, mo.M)
	n, p := 0, 0.0
	for j, w := range mo.Weights {
		if !set[j] || w == 0 {
			continue
		}
		p += w
		for _, i := range mo.Sets[j] {
			if !covered[i] {
				covered[i] = true
				n++
			}
		}
	}
	return float64(n) / p, p > 0
}

// network builds the max-flow feasibility network of LP (15) with every
// arrival rate at zero: source → primary j (capacity λ·P(E_j), set by
// setLambda through the edge id src[j]), primary j → machine i for
// admissible pairs (∞), machine i → sink (capacity 1). Nodes 0..M−1 are
// the primaries, M..2M−1 the machines, 2M the source and 2M+1 the sink.
func (mo *Model) network() (g *maxflow.Graph, src []int) {
	m := mo.M
	g = maxflow.NewGraph(2*m + 2)
	src = make([]int, m)
	for j := range mo.Weights {
		src[j] = g.AddEdge(2*m, j, 0)
		for _, i := range mo.Sets[j] {
			g.AddEdge(j, m+i, math.Inf(1))
		}
	}
	for i := 0; i < m; i++ {
		g.AddEdge(m+i, 2*m+1, 1)
	}
	return g, src
}

// setLambda gives the network the arrival rate lambda: primary j's source
// edge carries λ·P(E_j).
func (mo *Model) setLambda(g *maxflow.Graph, src []int, lambda float64) {
	for j, w := range mo.Weights {
		g.SetCapacity(src[j], lambda*w)
	}
}

// MaxLoadPercent converts a λ value to the cluster load percentage
// 100·λ/m reported in Figure 10.
func (mo *Model) MaxLoadPercent(lambda float64) float64 {
	return 100 * lambda / float64(mo.M)
}
