package loadlp

import (
	"fmt"
	"math"
	"math/bits"

	"flowsched/internal/psets"
)

// Independent solvers of LP (15) that MaxLoad is checked against. The
// simplex on LP (15) as written is the fourth; it lives with its own tests
// in internal/lp.

// hallOracle computes λ* by enumerating the Hall condition over all 2^m
// primary subsets:
//
//	λ* = min_{A ≠ ∅, P(A) > 0} |N(A)| / P(A).
//
// It panics for m > 25.
func hallOracle(mo *Model) float64 {
	m := mo.M
	if m > 25 {
		panic("loadlp: hallOracle limited to m ≤ 25")
	}
	targets := make([]uint32, m)
	for j := 0; j < m; j++ {
		var b uint32
		for _, i := range mo.Sets[j] {
			b |= 1 << uint(i)
		}
		targets[j] = b
	}
	size := 1 << uint(m)
	union := make([]uint32, size)
	weight := make([]float64, size)
	best := math.Inf(1)
	for mask := 1; mask < size; mask++ {
		low := mask & (-mask)
		j := bits.TrailingZeros32(uint32(low))
		rest := mask ^ low
		union[mask] = union[rest] | targets[j]
		weight[mask] = weight[rest] + mo.Weights[j]
		if weight[mask] <= 0 {
			continue
		}
		ratio := float64(bits.OnesCount32(union[mask])) / weight[mask]
		if ratio < best {
			best = ratio
		}
	}
	return best
}

// disjointOracle is the closed form for a disjoint family: the work of a
// block can spread anywhere inside the block and nowhere else, so
//
//	λ* = min_B |B| / P(B).
//
// It returns an error if the model's sets do not form a disjoint family.
func disjointOracle(mo *Model) (float64, error) {
	fam := psets.NewFamily(mo.M, mo.Sets...)
	if !fam.IsDisjoint() {
		return 0, fmt.Errorf("loadlp: sets are not a disjoint family")
	}
	best := math.Inf(1)
	for _, block := range fam.Sets {
		p := 0.0
		for j := 0; j < mo.M; j++ {
			if mo.Sets[j].Equal(block) {
				p += mo.Weights[j]
			}
		}
		if p > 0 {
			if r := float64(block.Len()) / p; r < best {
				best = r
			}
		}
	}
	return best, nil
}

// noReplicationOracle is the closed form without replication (|M_i| = 1):
// λ* = 1 / max_j P(E_j) (Section 7.2), +Inf when every weight is zero.
func noReplicationOracle(weights []float64) float64 {
	mx := 0.0
	for _, w := range weights {
		if w > mx {
			mx = w
		}
	}
	if mx == 0 {
		return math.Inf(1)
	}
	return 1 / mx
}
