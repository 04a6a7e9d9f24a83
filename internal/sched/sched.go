// Package sched implements the online scheduling algorithms of the paper:
// EFT (Earliest Finish Time, Algorithm 2) with the Min, Max and Rand
// tie-break policies of Algorithms 3-4, the centralized-queue FIFO scheduler
// (Algorithm 1), a heap-indexed EFT for the unrestricted case, and a
// non-clairvoyant join-shortest-queue baseline used as an extension.
package sched

import (
	"fmt"

	"flowsched/internal/core"
)

// Decision is an immediate-dispatch outcome: the machine μ_i and start time
// σ_i assigned to a task at its release.
type Decision struct {
	Machine int
	Start   core.Time
}

// Online is an immediate-dispatch online scheduler: each task is dispatched
// irrevocably at its release time, knowing only the tasks released so far.
// Dispatch must be called with tasks in non-decreasing release order.
type Online interface {
	Name() string
	Reset(m int)
	Dispatch(t core.Task) Decision
}

// Algorithm schedules a whole instance.
type Algorithm interface {
	Name() string
	Run(inst *core.Instance) (*core.Schedule, error)
}

// RunOnline feeds every task of the instance, in release order, to an
// immediate-dispatch scheduler and collects the resulting schedule. Every
// task is assigned, so the schedule skips NewSchedule's unassigned fill.
func RunOnline(alg Online, inst *core.Instance) *core.Schedule {
	alg.Reset(inst.M)
	n := inst.N()
	s := &core.Schedule{Inst: inst, Machine: make([]int, n), Start: make([]core.Time, n)}
	for i, t := range inst.Tasks {
		d := alg.Dispatch(t)
		s.Assign(i, d.Machine, d.Start)
	}
	return s
}

// onlineAlgorithm adapts an Online scheduler to the Algorithm interface.
type onlineAlgorithm struct{ o Online }

// AsAlgorithm wraps an immediate-dispatch scheduler as an Algorithm.
func AsAlgorithm(o Online) Algorithm { return onlineAlgorithm{o} }

func (a onlineAlgorithm) Name() string { return a.o.Name() }
func (a onlineAlgorithm) Run(inst *core.Instance) (*core.Schedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", a.o.Name(), err)
	}
	return RunOnline(a.o, inst), nil
}
