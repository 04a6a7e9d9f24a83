package sim

import (
	"math"

	"flowsched/internal/core"
)

// readyTree is a min segment tree over machine completion ("ready") times,
// the only state EFT reads. node[size+j] is machine j's completion time and
// every internal node holds the minimum of its two children, so node[1] is
// the earliest completion in the cluster. size is the least power of two
// ≥ m; the padding leaves hold +Inf, which never lowers a minimum.
//
// Only pick reads the internal minima, so they are built lazily: while
// stale is set, set writes the leaf alone, and the first pick rebuilds every
// minimum bottom-up once. A run whose tasks all have restricted sets reads
// leaves only (memberPick, eftTieSet) and never builds them.
type readyTree struct {
	m, size int
	node    []core.Time
	stale   bool
}

// newReadyTree builds the tree for m machines, all free at time 0.
func newReadyTree(m int) *readyTree {
	size := 1
	for size < m {
		size <<= 1
	}
	t := &readyTree{m: m, size: size, node: make([]core.Time, 2*size), stale: true}
	for j := m; j < size; j++ {
		t.set(j, math.Inf(1))
	}
	return t
}

// leaves returns the completion times of machines 0..m-1.
func (t *readyTree) leaves() []core.Time { return t.node[t.size : t.size+t.m] }

// set stores machine j's completion time c and, once the minima are built,
// refreshes those above it, stopping at the first ancestor whose value does
// not change.
func (t *readyTree) set(j int, c core.Time) {
	i := t.size + j
	t.node[i] = c
	if t.stale {
		return
	}
	for i > 1 {
		i >>= 1
		v := min(t.node[2*i], t.node[2*i+1])
		if v == t.node[i] {
			return
		}
		t.node[i] = v
	}
}

// pick returns EFT's machine for a full-set task released at r: the first
// (or, with last, the last) machine of the tie set
// U = { j : C_j ≤ max(r, min C) }, by one root-to-leaf descent. A subtree
// qualifies when its minimum is within the threshold. The leftmost
// qualifying leaf is always a machine, since the root's minimum is one; the
// rightmost search skips subtrees that start past machine m-1, because
// padding qualifies too once every machine's completion is +Inf.
func (t *readyTree) pick(r core.Time, last bool) int {
	if t.stale {
		for i := t.size - 1; i >= 1; i-- {
			t.node[i] = min(t.node[2*i], t.node[2*i+1])
		}
		t.stale = false
	}
	thr := max(r, t.node[1])
	i, lo := 1, 0
	for half := t.size >> 1; half > 0; half >>= 1 {
		i <<= 1
		if last {
			if lo+half < t.m && t.node[i+1] <= thr {
				i, lo = i+1, lo+half
			}
		} else if t.node[i] > thr {
			i++
		}
	}
	return i - t.size
}

// memberPick is pick for a restricted task: the first (or, with last, the
// last) member of set, in set order, whose completion time is at most
// max(r, min over set) — the machine MinTie (MaxTie) takes from eftTieSet's
// candidates. A member already free at r wins outright; otherwise the
// earliest-finishing member does.
func memberPick(set core.ProcSet, r core.Time, comp []core.Time, last bool) int {
	best := -1
	for x := range set {
		if last {
			x = len(set) - 1 - x
		}
		j := set[x]
		if comp[j] <= r {
			return j
		}
		if best < 0 || comp[j] < comp[best] {
			best = j
		}
	}
	return best
}
