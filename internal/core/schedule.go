package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// eps is the tolerance used when validating schedules built from
// floating-point arithmetic.
const eps = 1e-9

// Schedule maps every task of an instance to a machine and a start time.
// Machine[i] and Start[i] are the paper's μ_i and σ_i.
type Schedule struct {
	Inst    *Instance
	Machine []int
	Start   []Time
}

// NewSchedule allocates an empty schedule for the instance with all tasks
// unassigned (Machine -1, Start NaN).
func NewSchedule(inst *Instance) *Schedule {
	n := inst.N()
	s := &Schedule{
		Inst:    inst,
		Machine: make([]int, n),
		Start:   make([]Time, n),
	}
	for i := range s.Machine {
		s.Machine[i] = -1
		s.Start[i] = math.NaN()
	}
	return s
}

// Assign places task i on machine j starting at time start.
func (s *Schedule) Assign(i, j int, start Time) {
	s.Machine[i] = j
	s.Start[i] = start
}

// Completion returns C_i = σ_i + p_i.
func (s *Schedule) Completion(i int) Time { return s.Start[i] + s.Inst.Tasks[i].Proc }

// Flow returns F_i = C_i - r_i.
func (s *Schedule) Flow(i int) Time { return s.Completion(i) - s.Inst.Tasks[i].Release }

// MaxFlow returns the objective Fmax = max_i F_i (0 for an empty instance).
func (s *Schedule) MaxFlow() Time {
	var mx Time
	for i := range s.Inst.Tasks {
		if f := s.Flow(i); f > mx {
			mx = f
		}
	}
	return mx
}

// MeanFlow returns the average flow time (0 for an empty instance).
func (s *Schedule) MeanFlow() Time {
	if s.Inst.N() == 0 {
		return 0
	}
	var sum Time
	for i := range s.Inst.Tasks {
		sum += s.Flow(i)
	}
	return sum / Time(s.Inst.N())
}

// Flows returns the flow time of every task, indexed by task ID.
func (s *Schedule) Flows() []Time {
	out := make([]Time, s.Inst.N())
	for i := range out {
		out[i] = s.Flow(i)
	}
	return out
}

// Makespan returns max_i C_i.
func (s *Schedule) Makespan() Time {
	var mx Time
	for i := range s.Inst.Tasks {
		if c := s.Completion(i); c > mx {
			mx = c
		}
	}
	return mx
}

// MaxStretch returns max_i F_i / p_i.
func (s *Schedule) MaxStretch() Time {
	var mx Time
	for i := range s.Inst.Tasks {
		if st := s.Flow(i) / s.Inst.Tasks[i].Proc; st > mx {
			mx = st
		}
	}
	return mx
}

// Validate checks that the schedule is feasible:
//   - every task is assigned to an eligible machine,
//   - no task starts before its release time,
//   - tasks on the same machine do not overlap (non-preemptive, one task at
//     a time).
//
// The first task that breaks one of the first two rules is reported. Only
// when every task keeps them is an overlap reported: the first one, by
// machine and then by start, of a scan of each machine's tasks sorted by
// start. The per-task pass already compares each task with the previous
// task on its machine, so that scan runs only when some machine's starts
// do not strictly increase in ID order or an overlap is found. A schedule
// an immediate-dispatch engine built is checked in O(m) memory.
func (s *Schedule) Validate() error { return s.validate(false) }

// ValidatePartial checks feasibility like Validate but tolerates unassigned
// tasks — the dropped, rejected or shed requests of a faulty run, left at
// Machine −1 with a NaN start. An unassigned task must be consistently
// unassigned on both arrays; the assigned tasks must be feasible among
// themselves.
func (s *Schedule) ValidatePartial() error { return s.validate(true) }

func (s *Schedule) validate(allowUnassigned bool) error {
	n := s.Inst.N()
	if len(s.Machine) != n || len(s.Start) != n {
		return fmt.Errorf("schedule: assignment arrays sized %d/%d, want %d", len(s.Machine), len(s.Start), n)
	}
	// last[j] is 1 + the previous task on machine j (0 for none). While
	// every machine's starts increase strictly in ID order, each machine's
	// tasks in ID order are its tasks sorted by start, and comparing each
	// task with its predecessor is the sorted scan.
	last := make([]int, s.Inst.M)
	sorted := true
	for i := range s.Inst.Tasks {
		t := &s.Inst.Tasks[i]
		j := s.Machine[i]
		if allowUnassigned && (j < 0 || math.IsNaN(s.Start[i])) {
			if j != -1 || !math.IsNaN(s.Start[i]) {
				return fmt.Errorf("task %d: inconsistent unassigned state (machine %d, start %v)", i, j, s.Start[i])
			}
			continue
		}
		if j < 0 || j >= s.Inst.M {
			return fmt.Errorf("task %d: assigned to invalid machine %d", i, j)
		}
		if !t.Eligible(j) {
			return fmt.Errorf("task %d: machine M%d not in processing set %v", i, j+1, t.Set)
		}
		if math.IsNaN(s.Start[i]) {
			return fmt.Errorf("task %d: unassigned start time", i)
		}
		if s.Start[i] < t.Release-eps {
			return fmt.Errorf("task %d: starts at %v before release %v", i, s.Start[i], t.Release)
		}
		if prev := last[j] - 1; prev >= 0 && !(s.Start[i] > s.Start[prev] && s.Completion(prev) <= s.Start[i]+eps) {
			sorted = false
		}
		last[j] = i + 1
	}
	if sorted {
		return nil
	}
	return s.overlapScan()
}

// overlapScan sorts each machine's assigned tasks by start and reports the
// first pair, by machine and then by start, in which a task ends after the
// next one starts.
func (s *Schedule) overlapScan() error {
	for j, ids := range s.MachineTasks() {
		for x := 1; x < len(ids); x++ {
			prev, cur := ids[x-1], ids[x]
			if s.Completion(prev) > s.Start[cur]+eps {
				return fmt.Errorf("machine M%d: task %d (ends %v) overlaps task %d (starts %v)",
					j+1, prev, s.Completion(prev), cur, s.Start[cur])
			}
		}
	}
	return nil
}

// MachineTasks returns, for each machine, the IDs of its tasks sorted by
// start time.
func (s *Schedule) MachineTasks() [][]int {
	byMachine := make([][]int, s.Inst.M)
	for i := range s.Inst.Tasks {
		if j := s.Machine[i]; j >= 0 && j < s.Inst.M {
			byMachine[j] = append(byMachine[j], i)
		}
	}
	for _, ids := range byMachine {
		sort.Slice(ids, func(a, b int) bool { return s.Start[ids[a]] < s.Start[ids[b]] })
	}
	return byMachine
}

// WaitingWork returns, for each machine, the volume of work assigned to it
// and not yet completed at time t: w_t(j) in the paper's notation (remaining
// part of a running task plus queued tasks), considering only tasks with
// start already decided.
func (s *Schedule) WaitingWork(t Time) []Time {
	w := make([]Time, s.Inst.M)
	for i, task := range s.Inst.Tasks {
		j := s.Machine[i]
		if j < 0 {
			continue
		}
		c := s.Completion(i)
		if c <= t {
			continue
		}
		start := s.Start[i]
		if start >= t {
			w[j] += task.Proc
		} else {
			w[j] += c - t
		}
	}
	return w
}

// Gantt renders a small ASCII Gantt chart of the schedule, one line per
// machine, using one character per cell time units. Intended for unit-ish
// integral schedules (examples, Figure 3); larger or fractional schedules
// still render but coarsely.
func (s *Schedule) Gantt(cell Time) string {
	if cell <= 0 {
		cell = 1
	}
	horizon := s.Makespan()
	width := int(math.Ceil(horizon / cell))
	if width <= 0 {
		width = 1
	}
	if width > 200 {
		width = 200
	}
	rows := make([][]byte, s.Inst.M)
	for j := range rows {
		rows[j] = []byte(strings.Repeat(".", width))
	}
	glyphs := []byte("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
	for i := range s.Inst.Tasks {
		j := s.Machine[i]
		if j < 0 {
			continue
		}
		from := int(s.Start[i] / cell)
		to := int(math.Ceil(s.Completion(i)/cell)) - 1
		if to < from {
			to = from
		}
		g := glyphs[i%len(glyphs)]
		for x := from; x <= to && x < width; x++ {
			rows[j][x] = g
		}
	}
	var b strings.Builder
	for j := range rows {
		fmt.Fprintf(&b, "M%-2d |%s|\n", j+1, rows[j])
	}
	return b.String()
}
