package core

import (
	"fmt"
	"math"
	"sort"
)

// Time measures instants and durations. The model is continuous-time; unit
// tasks use Proc == 1.
type Time = float64

// Task is a request to be processed: released at Release, needing Proc time
// units on one machine of Set (nil Set = any machine). Key optionally records
// the key-value key that generated the task (-1 when not applicable).
type Task struct {
	ID      int
	Release Time
	Proc    Time
	Set     ProcSet
	Key     int
}

// Eligible reports whether machine j may process the task.
func (t Task) Eligible(j int) bool { return t.Set.Contains(j) }

// Instance is a scheduling problem: n tasks to run on M identical machines.
// Tasks must be ordered by non-decreasing release time (the paper's numbering
// convention i < j ⇒ r_i ≤ r_j); NewInstance establishes this order.
type Instance struct {
	M     int
	Tasks []Task
}

// NewInstance builds an instance on m machines, sorting the tasks by release
// time (stable, preserving submission order among equal releases) and
// assigning sequential IDs 0..n-1 in that order. It copies tasks first, so
// the caller keeps its slice.
func NewInstance(m int, tasks []Task) *Instance {
	ts := make([]Task, len(tasks))
	copy(ts, tasks)
	return AdoptInstance(m, ts)
}

// AdoptInstance is NewInstance for a slice the caller hands over: the
// instance keeps tasks as its Tasks, without a copy, so the caller must not
// use the slice afterwards. It stably sorts the tasks by release in place
// and assigns IDs 0..n-1 in that order. A slice whose releases never
// decrease, as the workload generators write theirs, is the sort's identity
// and is not sorted, so building its instance costs one pass.
func AdoptInstance(m int, tasks []Task) *Instance {
	inOrder := true
	for i := range tasks {
		tasks[i].ID = i
		if i > 0 && !(tasks[i].Release >= tasks[i-1].Release) { // a NaN is out of order too
			inOrder = false
		}
	}
	if !inOrder {
		sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].Release < tasks[j].Release })
		for i := range tasks {
			tasks[i].ID = i
		}
	}
	return &Instance{M: m, Tasks: tasks}
}

// N returns the number of tasks.
func (in *Instance) N() int { return len(in.Tasks) }

// Validate checks the instance invariants: m ≥ 1, non-negative releases,
// positive processing times, non-decreasing release order, IDs equal to
// positions, and processing sets that are non-empty subsets of 0..m-1
// listed in strictly increasing order, as ProcSet documents (Contains and
// the EFT tie-breaks rely on it). A task is valid when Task.ValidAt and
// ProcSet.ValidOn accept it; Validate names the first check that the first
// invalid task breaks.
//
// Every call checks every task: Instance's fields are exported and may
// change between calls, so no verdict is kept. sim.Run does not call
// Validate up front: it applies the same two checks to each task in the
// iteration that dispatches it, and on the first failure returns
// Validate's error.
func (in *Instance) Validate() error {
	if in.M < 1 {
		return fmt.Errorf("instance: need at least one machine, got %d", in.M)
	}
	prev := Time(0)
	for i := range in.Tasks {
		t := &in.Tasks[i]
		if !t.ValidAt(i, prev) {
			return taskError(i, t, prev)
		}
		prev = t.Release
		if s := t.Set; !s.ValidOn(in.M) {
			switch {
			case len(s) == 0:
				return fmt.Errorf("task %d: empty processing set", i)
			case s[0] < 0 || s[len(s)-1] >= in.M:
				return fmt.Errorf("task %d: processing set %v out of machine range [0,%d)", i, s, in.M)
			default:
				return fmt.Errorf("task %d: processing set %v is not strictly increasing", i, s)
			}
		}
	}
	return nil
}

// ValidAt reports whether the task's ID, release and processing time are
// valid for task i of an instance whose task i−1 is released at prev (0
// for the first task): ID i, a finite release of at least prev, and a
// finite positive processing time. That is three comparisons, which NaN
// fails like any value out of range; since prev is ≥ 0, the release
// comparison also rejects negative releases.
func (t *Task) ValidAt(i int, prev Time) bool {
	return t.ID == i && t.Release >= prev && t.Release <= math.MaxFloat64 &&
		t.Proc > 0 && t.Proc <= math.MaxFloat64
}

// taskError reports why task i, which must be released no earlier than
// prev, failed ValidAt: a bad ID, an invalid release, a release below prev
// or an invalid processing time, checked in that order.
func taskError(i int, t *Task, prev Time) error {
	switch {
	case t.ID != i:
		return fmt.Errorf("task %d: ID %d does not match position", i, t.ID)
	case t.Release < 0 || math.IsNaN(t.Release) || math.IsInf(t.Release, 0):
		return fmt.Errorf("task %d: invalid release time %v", i, t.Release)
	case t.Release < prev:
		return fmt.Errorf("task %d: release %v decreases below %v", i, t.Release, prev)
	default:
		return fmt.Errorf("task %d: invalid processing time %v", i, t.Proc)
	}
}

// UnitTasks reports whether every task has processing time exactly 1.
func (in *Instance) UnitTasks() bool {
	for _, t := range in.Tasks {
		if t.Proc != 1 {
			return false
		}
	}
	return true
}

// MaxProc returns max_i p_i (0 for an empty instance).
func (in *Instance) MaxProc() Time {
	var mx Time
	for _, t := range in.Tasks {
		if t.Proc > mx {
			mx = t.Proc
		}
	}
	return mx
}

// TotalWork returns Σ_i p_i.
func (in *Instance) TotalWork() Time {
	var w Time
	for _, t := range in.Tasks {
		w += t.Proc
	}
	return w
}

// Sets returns the distinct processing sets of the instance, in first-seen
// order. The unrestricted (nil) set, if present, is returned as the resolved
// full interval so callers can reason uniformly.
func (in *Instance) Sets() []ProcSet {
	var out []ProcSet
	for _, t := range in.Tasks {
		s := t.Set.Resolve(in.M)
		dup := false
		for _, u := range out {
			if u.Equal(s) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	return out
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	ts := make([]Task, len(in.Tasks))
	copy(ts, in.Tasks)
	for i := range ts {
		ts[i].Set = ts[i].Set.Clone()
	}
	return &Instance{M: in.M, Tasks: ts}
}
