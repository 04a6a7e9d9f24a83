package sim

import (
	"math"

	"flowsched/internal/core"
)

// readyTree is a four-way min tree over machine completion ("ready")
// times, the only state EFT reads. It compares integer keys: a node holds
// math.Float64bits of a completion time, and for the values the tree holds
// (+0 through +Inf; never −0 or NaN) unsigned order is numeric order.
// The root is node[1], node i's children are node[4i..4i+3], one 32-byte
// group, and every internal node holds the minimum of its four children,
// so node[1] is the earliest completion in the cluster. Level l of the
// tree is node[4^l .. 2·4^l), so nodes 2, 3, 8..15, … are never used.
// node[size+j] is machine j's key; size is the least power of four ≥ m, so
// a descent takes ⌈log₄ m⌉ levels. The padding leaves hold math.MaxUint64,
// above +Inf's bits, so no descent ever reaches one. comp keeps the
// completion times as floats for the readers of leaves.
//
// Only pickStart reads the keys, so they are built lazily: while stale is
// set, set writes comp alone, and the first pick converts every leaf and
// builds every minimum bottom-up once. A run whose tasks all have
// restricted sets reads leaves only (memberPick, eftTieSet) and never
// builds them.
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
		size <<= 2
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
// has update carry it to the root. set stays small enough to inline, so a
// run whose keys are never built pays a store and a test per dispatch.
func (t *readyTree) set(j int, c core.Time) {
	t.comp[j] = c
	if !t.stale {
		t.update(t.size+j, math.Float64bits(c))
	}
}

// update writes key v into node i, a leaf, and carries the running minimum
// to the root: each level takes the minimum of v and i's three siblings,
// whose loads do not wait for v, and writes it into the parent. The walk
// always reaches the root: a test for an unchanged minimum would be a
// branch taken at random. It is kept out of line so that set inlines.
//
//go:noinline
func (t *readyTree) update(i int, v uint64) {
	node := t.node
	node[i] = v
	for i > 1 {
		v = min(v, node[i^1], node[i^2], node[i^3])
		i >>= 2
		node[i] = v
	}
}

// pickStart returns EFT's machine for a full-set task released at r, and
// the task's start on it: the first (or, with last, the last) machine of
// the tie set U = { j : C_j ≤ max(r, min C) }, by one root-to-leaf
// descent. A subtree qualifies when its minimum is within the threshold
// thr, and the node a descent is at always qualifies. Each level compares
// three children with thr and steps by arithmetic on the compares, not by
// a jump: with xk = [child k > thr], Min steps to child
// x0 + x0·x1 + x0·x1·x2, the first child that qualifies, and Max mirrors it
// from child 3. max(r, 0) maps a release of −0, whose sign bit would sort
// it above every key, to +0. The threshold is at most +Inf's bits, so
// padding never qualifies.
//
// thr is also the start max(C_j, r) of the machine j reached, bit for bit:
// either thr is max(r, 0) ≥ C_j, the start, or thr is min C above
// max(r, 0), and then C_j = min C is the start.
func (t *readyTree) pickStart(r core.Time, last bool) (int, core.Time) {
	if t.stale {
		t.build()
	}
	node, size := t.node, t.size
	thr := max(math.Float64bits(max(r, 0)), node[1])
	i := 1
	if last {
		for i < size {
			c := 4 * i
			x3, x2, x1 := above(node[c+3], thr), above(node[c+2], thr), above(node[c+1], thr)
			i = c + 3 - (x3 + x3&x2 + x3&x2&x1)
		}
	} else {
		for i < size {
			c := 4 * i
			x0, x1, x2 := above(node[c], thr), above(node[c+1], thr), above(node[c+2], thr)
			i = c + x0 + x0&x1 + x0&x1&x2
		}
	}
	return i - size, math.Float64frombits(thr)
}

// above is 1 when key k is above the threshold thr and 0 otherwise; the
// compiler makes it a compare and a flag, not a jump.
func above(k, thr uint64) int {
	if k > thr {
		return 1
	}
	return 0
}

// build converts every machine's completion time to its key and computes
// every internal minimum bottom-up, one level at a time.
func (t *readyTree) build() {
	node, size := t.node, t.size
	for j, c := range t.comp {
		node[size+j] = math.Float64bits(c)
	}
	for lo := size / 4; lo > 0; lo /= 4 {
		for i := lo; i < 2*lo; i++ {
			c := 4 * i
			node[i] = min(node[c], node[c+1], node[c+2], node[c+3])
		}
	}
	t.stale = false
}

// memberPick is pickStart for a restricted task: the first (or, with last,
// the last) member of set whose completion time is at most
// max(r, min over set), the machine MinTie (MaxTie) takes from eftTieSet's
// candidates, and its start. By Eq. (2) that is the member of earliest
// start max(C_j, r), so the scan keeps the first minimum (Min, update on
// <) or the last (Max, on <=) of the start keys
// max(Float64bits(C_j), Float64bits(max(r, 0))), and the least key is the
// start's bits. The keys order as the starts do (completions are never −0
// or NaN, and max(r, 0) maps a −0 release to +0; see readyTree), so the
// pick needs no float compare and no exit for a member free at r: the
// compiler keeps the running minimum with CMOVs.
//
// The scan also checks set as core.ProcSet.ValidOn(len(comp)) does and
// returns −1 for a set that fails. The range guard stands in for comp's
// bounds check; order, an OR of every j − prev − 1, turns negative when a
// member does not increase.
func memberPick(set core.ProcSet, r core.Time, comp []core.Time, last bool) (int, core.Time) {
	floor := math.Float64bits(max(r, 0))
	best, pick := uint64(math.MaxUint64), -1
	prev, order := -1, 0
	if last {
		for _, j := range set {
			if uint(j) >= uint(len(comp)) {
				return -1, 0
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
				return -1, 0
			}
			order |= j - prev - 1
			prev = j
			if k := max(math.Float64bits(comp[j]), floor); k < best {
				best, pick = k, j
			}
		}
	}
	if order < 0 {
		return -1, 0
	}
	return pick, math.Float64frombits(best)
}
