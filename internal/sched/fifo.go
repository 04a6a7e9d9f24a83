package sched

import (
	"fmt"
	"math/bits"

	"flowsched/internal/core"
)

// FIFO is the centralized-queue scheduler of Algorithm 1: released tasks
// enter a global FIFO queue; whenever machines are idle and the queue is
// non-empty, the head task is pulled and executed by one idle machine,
// selected by the tie-break policy (nil means Min). FIFO is defined only
// without processing set restrictions (the paper notes extending it would be
// cumbersome); Run rejects restricted instances.
//
// Proposition 1 proves FIFO ≡ EFT on P|online-r_i|Fmax; the implementation
// here is a genuine event-driven central queue so the equivalence can be
// tested rather than assumed.
type FIFO struct {
	Tie TieBreak
}

// Name implements Algorithm.
func (f *FIFO) Name() string {
	if f.Tie == nil {
		return "FIFO-Min"
	}
	return "FIFO-" + f.Tie.Name()
}

// Run implements Algorithm. The dispatcher wakes at releases, walked with a
// cursor over the release-ordered tasks, and at machine completions. A busy
// machine has one pending completion, so the at most m of them sit in a
// binary min-heap of (completion, machine) pairs. Equal completions need no
// order among them: every completion ≤ now is drained before the next pull,
// into a bitset of idle machines that MinTie (MaxTie) reads from its lowest
// (highest) bit; other tie-breaks get the idle machines as a sorted slice.
// Each task costs one push and at most one pop, O(log m) each, and every
// task is assigned, so the schedule skips NewSchedule's unassigned fill.
func (f *FIFO) Run(inst *core.Instance) (*core.Schedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", f.Name(), err)
	}
	full := core.Interval(0, inst.M-1)
	for _, t := range inst.Tasks {
		if t.Set != nil && !t.Set.Equal(full) {
			return nil, fmt.Errorf("%s: task %d has a processing set restriction %v; FIFO requires unrestricted tasks", f.Name(), t.ID, t.Set)
		}
	}
	return f.RunUnchecked(inst), nil
}

// RunUnchecked is Run without its two checks, for a caller that has made
// them: inst must be valid, and every task's set nil or the full interval.
func (f *FIFO) RunUnchecked(inst *core.Instance) *core.Schedule {
	pickLast := false
	var cands []int // the sorted idle machines, for other tie-breaks
	switch f.Tie.(type) {
	case nil, MinTie:
	case MaxTie:
		pickLast = true
	default:
		cands = make([]int, 0, inst.M)
	}

	n := inst.N()
	s := &core.Schedule{Inst: inst, Machine: make([]int, n), Start: make([]core.Time, n)}
	idle := make(machineSet, (inst.M+63)/64) // machines with no work left: all, at time 0
	for j := 0; j < inst.M; j++ {
		idle.add(j)
	}
	nIdle := inst.M
	busy := make(completions, 0, inst.M)

	next := 0 // queue head: the first task not yet pulled
	for next < n {
		// Wake at the head's release, or at the earliest completion when no
		// machine is idle by then (the head may have waited since earlier).
		now := inst.Tasks[next].Release
		if nIdle == 0 && busy[0].at > now {
			now = busy[0].at
		}
		for len(busy) > 0 && busy[0].at <= now {
			idle.add(busy[0].j)
			nIdle++
			busy = busy.pop()
		}
		// Pull as many tasks as idle machines allow at this instant. The
		// selected machine "runs first", i.e. pulls are sequential.
		for next < n && inst.Tasks[next].Release <= now && nIdle > 0 {
			var j int
			switch {
			case cands != nil:
				j = f.Tie.Pick(idle.appendTo(cands[:0]))
			case pickLast:
				j = idle.last()
			default:
				j = idle.first()
			}
			task := &inst.Tasks[next]
			s.Assign(task.ID, j, now)
			if end := now + task.Proc; end > now {
				idle.remove(j)
				nIdle--
				busy = busy.push(end, j)
			}
			next++
		}
	}
	return s
}

// machineSet is a bitset of machine indices.
type machineSet []uint64

func (b machineSet) add(j int)    { b[j>>6] |= 1 << (j & 63) }
func (b machineSet) remove(j int) { b[j>>6] &^= 1 << (j & 63) }

// first returns the lowest machine in the set (−1 when empty).
func (b machineSet) first() int {
	for w, x := range b {
		if x != 0 {
			return w<<6 + bits.TrailingZeros64(x)
		}
	}
	return -1
}

// last returns the highest machine in the set (−1 when empty).
func (b machineSet) last() int {
	for w := len(b) - 1; w >= 0; w-- {
		if x := b[w]; x != 0 {
			return w<<6 + 63 - bits.LeadingZeros64(x)
		}
	}
	return -1
}

// appendTo appends the set's machines in increasing order.
func (b machineSet) appendTo(dst []int) []int {
	for w, x := range b {
		for ; x != 0; x &= x - 1 {
			dst = append(dst, w<<6+bits.TrailingZeros64(x))
		}
	}
	return dst
}

// completions is a binary min-heap of pending completions, one per busy
// machine.
type completions []pending

type pending struct {
	at core.Time
	j  int
}

func (h completions) push(at core.Time, j int) completions {
	h = append(h, pending{})
	x := len(h) - 1
	for x > 0 {
		p := (x - 1) / 2
		if h[p].at <= at {
			break
		}
		h[x] = h[p]
		x = p
	}
	h[x] = pending{at, j}
	return h
}

// pop removes the minimum.
func (h completions) pop() completions {
	last := h[len(h)-1]
	h = h[:len(h)-1]
	x := 0
	for {
		c := 2*x + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].at < h[c].at {
			c++
		}
		if last.at <= h[c].at {
			break
		}
		h[x] = h[c]
		x = c
	}
	if x < len(h) {
		h[x] = last
	}
	return h
}
