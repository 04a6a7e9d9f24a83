// Package replicate implements the replication strategies of Section 7.2:
// given the primary machine u of a key (the only holder without
// replication), a Strategy produces the processing set M'_i = I_k(u) of
// every task requesting that key.
//
// The paper studies two strategies — Overlapping ring intervals
// (Dynamo/Cassandra style) and Disjoint blocks — plus no replication. Two
// extensions (RandomK and OffsetDisjoint) are provided for the ablation
// experiments around the paper's open question (Section 8).
package replicate

import (
	"fmt"
	"math/rand"

	"flowsched/internal/core"
)

// Strategy maps a primary machine to the processing set of its keys on a
// cluster of m machines.
//
// Set must be a function of (u, m): every call with the same pair returns
// an equal set (RandomK draws its sets once and memoizes them). The
// generators of internal/workload rely on it. They ask for each primary's
// set once, through a Table, and every task of that primary shares the one
// set. A set a strategy returns is an immutable value: neither the
// strategy nor a task holding it may change its members in place.
type Strategy interface {
	Name() string
	// Set returns the processing set I_k(u) for primary machine u (0-based)
	// on m machines. Implementations must return a set containing u.
	Set(u, m int) core.ProcSet
}

// Table memoizes a strategy's sets for the primaries 0..m−1 of one cluster.
// It is filled lazily: Set(u) asks the strategy on u's first use and hands
// that same set to every later call. A generator keeps one Table for the
// instance it builds, so its tasks share at most m sets and a strategy that
// draws (RandomK) draws in first-use order, as a call per task would.
type Table struct {
	strategy Strategy
	m        int
	sets     []tableEntry
}

type tableEntry struct {
	set core.ProcSet // nil is a valid set: every machine
	ok  bool
}

// NewTable returns an empty table of the strategy's sets on m machines.
func NewTable(s Strategy, m int) Table {
	return Table{strategy: s, m: m, sets: make([]tableEntry, m)}
}

// Set returns the strategy's set for primary u, which must lie in [0, m).
func (t *Table) Set(u int) core.ProcSet {
	e := &t.sets[u]
	if !e.ok {
		e.set, e.ok = t.strategy.Set(u, t.m), true
	}
	return e.set
}

// None is the no-replication strategy: |M_i| = 1.
type None struct{}

// Name implements Strategy.
func (None) Name() string { return "none" }

// Set implements Strategy.
func (None) Set(u, m int) core.ProcSet { return core.NewProcSet(u) }

// Overlapping replicates each key on the K-1 clockwise successors of its
// primary on the machine ring:
//
//	I_k(u) = { M_j : j = (j'-1) mod m + 1 for u ≤ j' ≤ u+k-1 }.
//
// This is the standard key-value store scheme (Dynamo, Cassandra).
type Overlapping struct{ K int }

// Name implements Strategy.
func (o Overlapping) Name() string { return fmt.Sprintf("overlapping(k=%d)", o.K) }

// Set implements Strategy.
func (o Overlapping) Set(u, m int) core.ProcSet {
	checkK(o.K, m)
	return core.MustRingInterval(u, o.K, m)
}

// Disjoint divides the cluster into ⌈m/K⌉ consecutive blocks of size K (the
// last block may be shorter):
//
//	I_k(u) = { M_j : u'+1 ≤ j ≤ min(m, u'+k) },  u' = k⌊(u-1)/k⌋.
type Disjoint struct{ K int }

// Name implements Strategy.
func (d Disjoint) Name() string { return fmt.Sprintf("disjoint(k=%d)", d.K) }

// Set implements Strategy.
func (d Disjoint) Set(u, m int) core.ProcSet {
	checkK(d.K, m)
	lo := (u / d.K) * d.K
	hi := lo + d.K - 1
	if hi >= m {
		hi = m - 1
	}
	return core.Interval(lo, hi)
}

// OffsetDisjoint is Disjoint with the block boundaries rotated by Offset
// machines on the ring, an ablation for how partition alignment interacts
// with a popularity bias. Offset = 0 reduces to Disjoint on a ring.
type OffsetDisjoint struct {
	K      int
	Offset int
}

// Name implements Strategy.
func (d OffsetDisjoint) Name() string {
	return fmt.Sprintf("offset-disjoint(k=%d,off=%d)", d.K, d.Offset)
}

// Set implements Strategy.
func (d OffsetDisjoint) Set(u, m int) core.ProcSet {
	checkK(d.K, m)
	shift := ((u-d.Offset)%m + m) % m
	lo := (shift / d.K) * d.K
	hi := lo + d.K - 1
	if hi >= m {
		hi = m - 1
	}
	ids := make([]int, 0, hi-lo+1)
	for j := lo; j <= hi; j++ {
		ids = append(ids, ((j+d.Offset)%m+m)%m)
	}
	return core.NewProcSet(ids...)
}

// RandomK replicates each primary on K-1 additional machines drawn once,
// uniformly without replacement, from the remaining cluster (an unstructured
// baseline: the resulting family generally has none of the paper's
// structures). The assignment is memoized per primary so that all tasks for
// the same key share the same processing set, as in a real store.
type RandomK struct {
	K   int
	Rng *rand.Rand

	memo map[int]core.ProcSet
}

// NewRandomK builds a RandomK strategy with its own memo table.
func NewRandomK(k int, rng *rand.Rand) *RandomK {
	return &RandomK{K: k, Rng: rng, memo: make(map[int]core.ProcSet)}
}

// Name implements Strategy.
func (r *RandomK) Name() string { return fmt.Sprintf("random(k=%d)", r.K) }

// Set implements Strategy.
func (r *RandomK) Set(u, m int) core.ProcSet {
	checkK(r.K, m)
	if s, ok := r.memo[u]; ok {
		return s
	}
	ids := []int{u}
	perm := r.Rng.Perm(m)
	for _, j := range perm {
		if len(ids) == r.K {
			break
		}
		if j != u {
			ids = append(ids, j)
		}
	}
	s := core.NewProcSet(ids...)
	r.memo[u] = s
	return s
}

// CheckK validates a replication factor against a cluster size: k must lie
// in [1, m].
func CheckK(k, m int) error {
	if k < 1 || k > m {
		return fmt.Errorf("replicate: replication factor k=%d out of range [1, %d]", k, m)
	}
	return nil
}

func checkK(k, m int) {
	if err := CheckK(k, m); err != nil {
		panic(err.Error())
	}
}

// Validator is implemented by strategies whose parameters can be checked
// against a cluster size up front, turning the late checkK panic inside Set
// into a clear error at construction/validation time.
type Validator interface {
	Validate(m int) error
}

// Validate implements Validator.
func (o Overlapping) Validate(m int) error { return CheckK(o.K, m) }

// Validate implements Validator.
func (d Disjoint) Validate(m int) error { return CheckK(d.K, m) }

// Validate implements Validator.
func (d OffsetDisjoint) Validate(m int) error { return CheckK(d.K, m) }

// Validate implements Validator.
func (r *RandomK) Validate(m int) error { return CheckK(r.K, m) }

// Validate checks a strategy against a cluster of m machines: strategies
// implementing Validator are asked directly; others (None, unrestricted
// pseudo-strategies) are always valid.
func Validate(s Strategy, m int) error {
	if m < 1 {
		return fmt.Errorf("replicate: need at least one machine, got %d", m)
	}
	if v, ok := s.(Validator); ok {
		return v.Validate(m)
	}
	return nil
}
