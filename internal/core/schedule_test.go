package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func mkInstance(m int, tasks ...Task) *Instance { return NewInstance(m, tasks) }

func TestNewInstanceSortsByRelease(t *testing.T) {
	inst := mkInstance(2,
		Task{Release: 3, Proc: 1},
		Task{Release: 1, Proc: 2},
		Task{Release: 2, Proc: 1},
	)
	if inst.N() != 3 {
		t.Fatalf("N = %d", inst.N())
	}
	for i := 1; i < inst.N(); i++ {
		if inst.Tasks[i].Release < inst.Tasks[i-1].Release {
			t.Fatalf("tasks not sorted by release: %v", inst.Tasks)
		}
	}
	for i, task := range inst.Tasks {
		if task.ID != i {
			t.Fatalf("task %d has ID %d", i, task.ID)
		}
	}
	if err := inst.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestNewInstanceStableOnTies(t *testing.T) {
	inst := mkInstance(2,
		Task{Release: 0, Proc: 1, Key: 10},
		Task{Release: 0, Proc: 1, Key: 20},
		Task{Release: 0, Proc: 1, Key: 30},
	)
	keys := []int{inst.Tasks[0].Key, inst.Tasks[1].Key, inst.Tasks[2].Key}
	if keys[0] != 10 || keys[1] != 20 || keys[2] != 30 {
		t.Fatalf("tie order not preserved: %v", keys)
	}
}

// TestAdoptInstanceMatchesStableSort: AdoptInstance, and NewInstance
// through it, build the instance that a stable sort of a copy with fresh
// IDs builds — for slices in release order or not, with ties, NaN
// releases and stale IDs, past the 20-task blocks of the sort — in the
// slice they are given, and on a slice in release order allocate only the
// Instance.
func TestAdoptInstanceMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		tasks := make([]Task, rng.Intn(100))
		r := 0.0
		for i := range tasks {
			if rng.Intn(3) > 0 {
				r += float64(rng.Intn(3))
			}
			tasks[i] = Task{ID: rng.Intn(7), Release: r, Proc: 1, Key: i}
			if trial%3 == 2 && rng.Intn(10) == 0 {
				// No neighbour of a NaN is out of order with it, so the
				// drop after it is an inversion no adjacent pair shows.
				tasks[i].Release = math.NaN()
				r -= 3
			}
		}
		if trial%2 == 1 {
			rng.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
		}
		sorted := make([]Task, len(tasks))
		copy(sorted, tasks)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Release < sorted[j].Release })
		for i := range sorted {
			sorted[i].ID = i
		}
		want := &Instance{M: 4, Tasks: sorted}
		adopted := make([]Task, len(tasks))
		copy(adopted, tasks)
		got := AdoptInstance(4, adopted)
		// reflect.DeepEqual calls NaN unequal to itself, so compare the bits.
		if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) || fmt.Sprintf("%#v", NewInstance(4, tasks)) != fmt.Sprintf("%#v", want) {
			t.Fatalf("trial %d: instance differs from the stable sort's", trial)
		}
		if len(adopted) > 0 && &got.Tasks[0] != &adopted[0] {
			t.Fatalf("trial %d: AdoptInstance copied the slice", trial)
		}
	}
	sorted := NewInstance(2, []Task{{Release: 0, Proc: 1}, {Release: 1, Proc: 1}, {Release: 1, Proc: 1}}).Tasks
	if allocs := testing.AllocsPerRun(10, func() { AdoptInstance(2, sorted) }); allocs != 1 {
		t.Errorf("AdoptInstance of a slice in release order: %.0f allocations, want 1", allocs)
	}
}

// TestInstanceValidateErrors pins every rejection's exact message, so a
// change in which check a bad task fails first shows here.
func TestInstanceValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		inst *Instance
		want string
	}{
		{"no machines", &Instance{M: 0}, "instance: need at least one machine, got 0"},
		{"negative release", &Instance{M: 1, Tasks: []Task{{ID: 0, Release: -1, Proc: 1}}},
			"task 0: invalid release time -1"},
		{"zero proc", &Instance{M: 1, Tasks: []Task{{ID: 0, Release: 0, Proc: 0}}},
			"task 0: invalid processing time 0"},
		{"nan proc", &Instance{M: 1, Tasks: []Task{{ID: 0, Release: 0, Proc: math.NaN()}}},
			"task 0: invalid processing time NaN"},
		{"bad ID", &Instance{M: 1, Tasks: []Task{{ID: 5, Release: 0, Proc: 1}}},
			"task 0: ID 5 does not match position"},
		{"empty set", &Instance{M: 1, Tasks: []Task{{ID: 0, Release: 0, Proc: 1, Set: ProcSet{}}}},
			"task 0: empty processing set"},
		{"set out of range", &Instance{M: 2, Tasks: []Task{{ID: 0, Release: 0, Proc: 1, Set: NewProcSet(2)}}},
			"task 0: processing set {M3} out of machine range [0,2)"},
		// Members are each checked, not only the first and last.
		{"middle member out of range", NewInstance(3, []Task{{Release: 0, Proc: 1, Set: ProcSet{0, 5, 2}}}),
			"task 0: processing set {M1,M6,M3} is not strictly increasing"},
		{"duplicate member", NewInstance(3, []Task{{Release: 0, Proc: 1, Set: ProcSet{1, 1}}}),
			"task 0: processing set {M2,M2} is not strictly increasing"},
		{"descending set", NewInstance(3, []Task{{Release: 0, Proc: 1, Set: ProcSet{2, 1}}}),
			"task 0: processing set {M3,M2} is not strictly increasing"},
		{"negative member", NewInstance(3, []Task{{Release: 0, Proc: 1, Set: ProcSet{-1, 1}}}),
			"task 0: processing set {M0,M2} out of machine range [0,3)"},
		{"unsorted", &Instance{M: 1, Tasks: []Task{
			{ID: 0, Release: 2, Proc: 1}, {ID: 1, Release: 1, Proc: 1}}},
			"task 1: release 1 decreases below 2"},
		// A negative release is invalid, not a decrease, even below an
		// earlier positive one.
		{"negative after positive", &Instance{M: 1, Tasks: []Task{
			{ID: 0, Release: 2, Proc: 1}, {ID: 1, Release: -1, Proc: 1}}},
			"task 1: invalid release time -1"},
		{"inf release", &Instance{M: 1, Tasks: []Task{{ID: 0, Release: math.Inf(1), Proc: 1}}},
			"task 0: invalid release time +Inf"},
		{"nan release", &Instance{M: 1, Tasks: []Task{{ID: 0, Release: math.NaN(), Proc: 1}}},
			"task 0: invalid release time NaN"},
		{"inf proc", &Instance{M: 1, Tasks: []Task{{ID: 0, Release: 0, Proc: math.Inf(1)}}},
			"task 0: invalid processing time +Inf"},
	}
	for _, c := range cases {
		err := c.inst.Validate()
		if err == nil {
			t.Errorf("%s: Validate should fail", c.name)
		} else if err.Error() != c.want {
			t.Errorf("%s: Validate = %q, want %q", c.name, err, c.want)
		}
	}
}

func TestScheduleObjectives(t *testing.T) {
	inst := mkInstance(2,
		Task{Release: 0, Proc: 2},
		Task{Release: 1, Proc: 1},
		Task{Release: 1, Proc: 3},
	)
	s := NewSchedule(inst)
	s.Assign(0, 0, 0) // C=2, F=2
	s.Assign(1, 1, 1) // C=2, F=1
	s.Assign(2, 1, 2) // C=5, F=4
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := s.MaxFlow(); got != 4 {
		t.Errorf("MaxFlow = %v, want 4", got)
	}
	if got := s.Makespan(); got != 5 {
		t.Errorf("Makespan = %v, want 5", got)
	}
	if got := s.MeanFlow(); math.Abs(got-7.0/3) > 1e-12 {
		t.Errorf("MeanFlow = %v, want %v", got, 7.0/3)
	}
	if got := s.MaxStretch(); got != 4.0/3 {
		t.Errorf("MaxStretch = %v, want 4/3", got)
	}
	flows := s.Flows()
	if len(flows) != 3 || flows[0] != 2 || flows[1] != 1 || flows[2] != 4 {
		t.Errorf("Flows = %v", flows)
	}
}

func TestScheduleValidateCatchesOverlap(t *testing.T) {
	inst := mkInstance(1,
		Task{Release: 0, Proc: 2},
		Task{Release: 0, Proc: 2},
	)
	s := NewSchedule(inst)
	s.Assign(0, 0, 0)
	s.Assign(1, 0, 1) // overlaps [0,2)
	if err := s.Validate(); err == nil {
		t.Fatalf("expected overlap error")
	}
	s.Assign(1, 0, 2)
	if err := s.Validate(); err != nil {
		t.Fatalf("back-to-back should be valid: %v", err)
	}
}

func TestScheduleValidateCatchesEligibility(t *testing.T) {
	inst := mkInstance(2, Task{Release: 0, Proc: 1, Set: NewProcSet(1)})
	s := NewSchedule(inst)
	s.Assign(0, 0, 0)
	if err := s.Validate(); err == nil {
		t.Fatalf("expected eligibility error")
	}
	s.Assign(0, 1, 0)
	if err := s.Validate(); err != nil {
		t.Fatalf("eligible assignment rejected: %v", err)
	}
}

func TestScheduleValidateCatchesEarlyStart(t *testing.T) {
	inst := mkInstance(1, Task{Release: 5, Proc: 1})
	s := NewSchedule(inst)
	s.Assign(0, 0, 4)
	if err := s.Validate(); err == nil {
		t.Fatalf("expected release-time error")
	}
}

func TestScheduleValidateUnassigned(t *testing.T) {
	inst := mkInstance(1, Task{Release: 0, Proc: 1})
	s := NewSchedule(inst)
	if err := s.Validate(); err == nil {
		t.Fatalf("expected unassigned error")
	}
}

func TestWaitingWork(t *testing.T) {
	inst := mkInstance(2,
		Task{Release: 0, Proc: 2},
		Task{Release: 0, Proc: 1},
		Task{Release: 0, Proc: 3},
	)
	s := NewSchedule(inst)
	s.Assign(0, 0, 0) // M1: [0,2)
	s.Assign(2, 0, 2) // M1: [2,5)
	s.Assign(1, 1, 0) // M2: [0,1)
	w := s.WaitingWork(1)
	// At t=1: M1 has 1 unit left of task0 plus 3 queued = 4; M2 idle.
	if w[0] != 4 || w[1] != 0 {
		t.Errorf("WaitingWork(1) = %v, want [4 0]", w)
	}
	w = s.WaitingWork(2.5)
	if math.Abs(w[0]-2.5) > 1e-12 {
		t.Errorf("WaitingWork(2.5)[0] = %v, want 2.5", w[0])
	}
}

func TestMachineTasks(t *testing.T) {
	inst := mkInstance(2,
		Task{Release: 0, Proc: 1},
		Task{Release: 0, Proc: 1},
		Task{Release: 1, Proc: 1},
	)
	s := NewSchedule(inst)
	s.Assign(0, 0, 0)
	s.Assign(1, 1, 0)
	s.Assign(2, 0, 1)
	mt := s.MachineTasks()
	if len(mt[0]) != 2 || mt[0][0] != 0 || mt[0][1] != 2 {
		t.Errorf("machine 0 tasks = %v", mt[0])
	}
	if len(mt[1]) != 1 || mt[1][0] != 1 {
		t.Errorf("machine 1 tasks = %v", mt[1])
	}
}

func TestGantt(t *testing.T) {
	inst := mkInstance(2,
		Task{Release: 0, Proc: 2},
		Task{Release: 0, Proc: 1},
	)
	s := NewSchedule(inst)
	s.Assign(0, 0, 0)
	s.Assign(1, 1, 0)
	g := s.Gantt(1)
	if !strings.Contains(g, "M1") || !strings.Contains(g, "00") || !strings.Contains(g, "1.") {
		t.Errorf("unexpected gantt output:\n%s", g)
	}
}

func TestInstanceAggregates(t *testing.T) {
	inst := mkInstance(3,
		Task{Release: 0, Proc: 1},
		Task{Release: 0, Proc: 2.5},
		Task{Release: 1, Proc: 1},
	)
	if inst.UnitTasks() {
		t.Errorf("instance has a non-unit task")
	}
	if got := inst.MaxProc(); got != 2.5 {
		t.Errorf("MaxProc = %v", got)
	}
	if got := inst.TotalWork(); got != 4.5 {
		t.Errorf("TotalWork = %v", got)
	}
	unit := mkInstance(1, Task{Release: 0, Proc: 1})
	if !unit.UnitTasks() {
		t.Errorf("unit instance misdetected")
	}
}

func TestInstanceSets(t *testing.T) {
	inst := mkInstance(3,
		Task{Release: 0, Proc: 1, Set: NewProcSet(0, 1)},
		Task{Release: 0, Proc: 1, Set: NewProcSet(0, 1)},
		Task{Release: 0, Proc: 1}, // unrestricted
		Task{Release: 0, Proc: 1, Set: NewProcSet(2)},
	)
	sets := inst.Sets()
	if len(sets) != 3 {
		t.Fatalf("Sets = %v, want 3 distinct", sets)
	}
	if !sets[1].Equal(Interval(0, 2)) {
		t.Errorf("unrestricted set should resolve to full interval, got %v", sets[1])
	}
}

func TestInstanceClone(t *testing.T) {
	inst := mkInstance(2, Task{Release: 0, Proc: 1, Set: NewProcSet(0)})
	cp := inst.Clone()
	cp.Tasks[0].Set[0] = 1
	if inst.Tasks[0].Set[0] != 0 {
		t.Fatalf("Clone should deep-copy processing sets")
	}
}

func TestGanttClampsWidth(t *testing.T) {
	// A very long schedule renders at most 200 columns.
	inst := mkInstance(1, Task{Release: 0, Proc: 1000})
	s := NewSchedule(inst)
	s.Assign(0, 0, 0)
	g := s.Gantt(1)
	line := strings.SplitN(g, "\n", 2)[0]
	if len(line) > 220 {
		t.Fatalf("gantt line too wide: %d chars", len(line))
	}
}

func TestGanttDefaultsCell(t *testing.T) {
	inst := mkInstance(1, Task{Release: 0, Proc: 2})
	s := NewSchedule(inst)
	s.Assign(0, 0, 0)
	if g := s.Gantt(0); !strings.Contains(g, "00") { // cell ≤ 0 defaults to 1
		t.Fatalf("gantt with cell=0: %q", g)
	}
}

func TestGanttEmptySchedule(t *testing.T) {
	inst := NewInstance(2, nil)
	s := NewSchedule(inst)
	if g := s.Gantt(1); !strings.Contains(g, "M1") {
		t.Fatalf("empty gantt should still print machine rows: %q", g)
	}
}

func TestProcSetMinMaxPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Max on empty set should panic")
		}
	}()
	(ProcSet{}).Max()
}

func TestProcSetMinOnNil(t *testing.T) {
	if AllMachines.Min() != 0 {
		t.Fatalf("nil Min should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Min on empty non-nil set should panic")
		}
	}()
	(ProcSet{}).Min()
}

func TestResolve(t *testing.T) {
	if got := AllMachines.Resolve(3); !got.Equal(Interval(0, 2)) {
		t.Fatalf("Resolve(nil) = %v", got)
	}
	s := NewProcSet(1)
	if got := s.Resolve(3); !got.Equal(s) {
		t.Fatalf("Resolve(non-nil) should be identity")
	}
}
