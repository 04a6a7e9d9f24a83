package sched

import (
	"fmt"
	"sort"

	"flowsched/internal/core"
	"flowsched/internal/eventq"
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
// cursor over the release-ordered tasks, and at machine completions, kept in
// a heap holding one pending completion per busy machine (at most m). Each
// task costs O(log m) heap work plus a shift of the sorted idle-machine
// slice the tie-break picks from.
func (f *FIFO) Run(inst *core.Instance) (*core.Schedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", f.Name(), err)
	}
	for _, t := range inst.Tasks {
		if t.Set != nil && !t.Set.Equal(core.Interval(0, inst.M-1)) {
			return nil, fmt.Errorf("%s: task %d has a processing set restriction %v; FIFO requires unrestricted tasks", f.Name(), t.ID, t.Set)
		}
	}
	tie := f.Tie
	if tie == nil {
		tie = MinTie{}
	}

	n := inst.N()
	s := core.NewSchedule(inst)
	idle := make([]int, inst.M) // sorted machines with no work left: all, at time 0
	for j := range idle {
		idle[j] = j
	}
	var busy eventq.Queue[int] // completion instant → machine
	busy.Reserve(inst.M)

	next := 0 // queue head: the first task not yet pulled
	for next < n {
		// Wake at the head's release, or at the earliest completion when no
		// machine is idle by then (the head may have waited since earlier).
		now := inst.Tasks[next].Release
		if len(idle) == 0 {
			if c, _ := busy.Peek(); c > now {
				now = c
			}
		}
		for busy.Len() > 0 {
			c, j := busy.Peek()
			if c > now {
				break
			}
			busy.Pop()
			k := sort.SearchInts(idle, j)
			idle = append(idle, 0)
			copy(idle[k+1:], idle[k:])
			idle[k] = j
		}
		// Pull as many tasks as idle machines allow at this instant. The
		// selected machine "runs first", i.e. pulls are sequential.
		for next < n && inst.Tasks[next].Release <= now && len(idle) > 0 {
			j := tie.Pick(idle)
			task := inst.Tasks[next]
			s.Assign(task.ID, j, now)
			if end := now + task.Proc; end > now {
				k := sort.SearchInts(idle, j)
				idle = append(idle[:k], idle[k+1:]...)
				busy.Push(end, j)
			}
			next++
		}
	}
	return s, nil
}
