package sim

import (
	"math"

	"flowsched/internal/core"
)

// readyTree is a min segment tree over machine completion ("ready") times,
// the only state EFT reads. It compares integer keys: a node holds
// math.Float64bits of a completion time, and for the values the tree holds
// (+0 through +Inf; never −0 or NaN) unsigned order is numeric order.
// node[size+j] is machine j's key and every internal node holds the
// minimum of its two children, so node[1] is the earliest completion in
// the cluster. size is the least power of two ≥ m; the padding leaves hold
// math.MaxUint64, above +Inf's bits, so no descent ever reaches one. comp
// keeps the completion times as floats for the readers of leaves.
//
// Only pick reads the keys, so they are built lazily: while stale is set,
// set writes comp alone, and the first pick converts every leaf and builds
// every minimum bottom-up once. A run whose tasks all have restricted sets
// reads leaves only (memberPick, eftTieSet) and never builds them.
type readyTree struct {
	size  int
	node  []uint64
	comp  []core.Time
	stale bool
}

// newReadyTree builds the tree for m machines, all free at time 0.
func newReadyTree(m int) *readyTree {
	size := 1
	for size < m {
		size <<= 1
	}
	t := &readyTree{size: size, node: make([]uint64, 2*size), comp: make([]core.Time, m), stale: true}
	for j := m; j < size; j++ {
		t.node[size+j] = math.MaxUint64
	}
	return t
}

// leaves returns the completion times of machines 0..m-1.
func (t *readyTree) leaves() []core.Time { return t.comp }

// set stores machine j's completion time c and, once the keys are built,
// carries the running minimum from its leaf to the root. The walk always
// reaches the root: a test for an unchanged minimum would be a branch
// taken at random.
func (t *readyTree) set(j int, c core.Time) {
	t.comp[j] = c
	if t.stale {
		return
	}
	node, i, v := t.node, t.size+j, math.Float64bits(c)
	node[i] = v
	for i > 1 {
		if s := node[i^1]; s < v {
			v = s
		}
		i >>= 1
		node[i] = v
	}
}

// pick returns EFT's machine for a full-set task released at r: the first
// (or, with last, the last) machine of the tie set
// U = { j : C_j ≤ max(r, min C) }, by one root-to-leaf descent. A subtree
// qualifies when its minimum is within the threshold, and each level steps
// to the qualifying child by arithmetic on the compare, not by a jump.
// max(r, 0) maps a release of −0, whose sign bit would sort it above every
// key, to +0. The threshold is at most +Inf's bits, so padding never
// qualifies.
func (t *readyTree) pick(r core.Time, last bool) int {
	if t.stale {
		t.build()
	}
	node, size := t.node, t.size
	thr := max(math.Float64bits(max(r, 0)), node[1])
	i := 1
	if last {
		for i < size {
			c, d := 2*i, 0
			if node[c+1] <= thr {
				d = 1
			}
			i = c + d
		}
	} else {
		for i < size {
			c, d := 2*i, 0
			if node[c] > thr {
				d = 1
			}
			i = c + d
		}
	}
	return i - size
}

// build converts every machine's completion time to its key and computes
// every internal minimum bottom-up.
func (t *readyTree) build() {
	for j, c := range t.comp {
		t.node[t.size+j] = math.Float64bits(c)
	}
	for i := t.size - 1; i >= 1; i-- {
		t.node[i] = min(t.node[2*i], t.node[2*i+1])
	}
	t.stale = false
}

// memberPick is pick for a restricted task: the first (or, with last, the
// last) member of set whose completion time is at most max(r, min over
// set), the machine MinTie (MaxTie) takes from eftTieSet's candidates. By
// Eq. (2) that is the member of earliest start max(C_j, r), so the scan
// keeps the first minimum (Min, update on <) or the last (Max, on <=) of
// the start keys max(Float64bits(C_j), Float64bits(max(r, 0))). The keys
// order as the starts do (completions are never −0 or NaN, and max(r, 0)
// maps a −0 release to +0; see readyTree), so the pick needs no float
// compare and no exit for a member free at r: the compiler keeps the
// running minimum with CMOVs.
//
// The scan also checks set as core.ProcSet.ValidOn(len(comp)) does and
// returns −1 for a set that fails. The range guard stands in for comp's
// bounds check; order, an OR of every j − prev − 1, turns negative when a
// member does not increase.
func memberPick(set core.ProcSet, r core.Time, comp []core.Time, last bool) int {
	floor := math.Float64bits(max(r, 0))
	best, pick := uint64(math.MaxUint64), -1
	prev, order := -1, 0
	if last {
		for _, j := range set {
			if uint(j) >= uint(len(comp)) {
				return -1
			}
			order |= j - prev - 1
			prev = j
			if k := max(math.Float64bits(comp[j]), floor); k <= best {
				best, pick = k, j
			}
		}
	} else {
		for _, j := range set {
			if uint(j) >= uint(len(comp)) {
				return -1
			}
			order |= j - prev - 1
			prev = j
			if k := max(math.Float64bits(comp[j]), floor); k < best {
				best, pick = k, j
			}
		}
	}
	if order < 0 {
		return -1
	}
	return pick
}
