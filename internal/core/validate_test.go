package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/sim"
)

// sortedScanValidate is the check Schedule.Validate and ValidatePartial
// made before their per-task pass compared each task with the previous one
// on its machine: the per-task checks, then every machine's tasks sorted by
// start and scanned for an overlap. It is the oracle of their error
// strings.
func sortedScanValidate(s *core.Schedule, allowUnassigned bool) error {
	const eps = 1e-9
	n := s.Inst.N()
	if len(s.Machine) != n || len(s.Start) != n {
		return fmt.Errorf("schedule: assignment arrays sized %d/%d, want %d", len(s.Machine), len(s.Start), n)
	}
	byMachine := make([][]int, s.Inst.M)
	for i, t := range s.Inst.Tasks {
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
		byMachine[j] = append(byMachine[j], i)
	}
	for j, ids := range byMachine {
		sort.Slice(ids, func(a, b int) bool { return s.Start[ids[a]] < s.Start[ids[b]] })
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

// validateInstance draws n tasks on m machines with nil sets, k-rings and
// random sets mixed, at a load near 1, so machines queue and an edit can
// overlap a neighbour.
func validateInstance(m, n int, rng *rand.Rand) *core.Instance {
	tasks := make([]core.Task, n)
	r := 0.0
	for i := range tasks {
		r += rng.ExpFloat64() / float64(m)
		var set core.ProcSet
		switch rng.Intn(3) {
		case 0:
		case 1:
			set = core.MustRingInterval(rng.Intn(m), 1+rng.Intn(m), m)
		default:
			set = core.NewProcSet(rng.Perm(m)[:1+rng.Intn(m)]...)
		}
		tasks[i] = core.Task{Release: r, Proc: 0.5 + rng.Float64(), Set: set}
	}
	return core.NewInstance(m, tasks)
}

// editValidate applies one edit to a copy of a clean schedule: kind picks
// it, task pos%n is edited and task d%n is its partner.
//
//	0  move the task to its partner's start plus δ
//	1  shift its start by +|δ|
//	2  shift its start by −|δ|
//	3  give it its partner's machine and start (a shared start)
//	4  put it on another machine
//	5  leave it unassigned (machine −1, start NaN)
func editValidate(clean *core.Schedule, kind uint8, pos uint16, d int16) *core.Schedule {
	inst := clean.Inst
	s := &core.Schedule{Inst: inst, Machine: append([]int(nil), clean.Machine...), Start: append([]core.Time(nil), clean.Start...)}
	n := inst.N()
	if n == 0 {
		return s
	}
	i, o := int(pos)%n, int(uint16(d))%n
	delta := float64(d) / 4096
	switch kind % 6 {
	case 0:
		s.Start[i] = s.Start[o] + delta
	case 1:
		s.Start[i] += math.Abs(delta)
	case 2:
		s.Start[i] -= math.Abs(delta)
	case 3:
		s.Machine[i], s.Start[i] = s.Machine[o], s.Start[o]
	case 4:
		s.Machine[i] = (s.Machine[i] + 1 + int(uint16(d))%inst.M) % inst.M
	case 5:
		s.Machine[i], s.Start[i] = -1, math.NaN()
	}
	return s
}

// checkValidate fails unless Validate and ValidatePartial return the
// sorted scan's error, string for string.
func checkValidate(t *testing.T, name string, s *core.Schedule) {
	t.Helper()
	for _, partial := range []bool{false, true} {
		got := s.Validate()
		if partial {
			got = s.ValidatePartial()
		}
		want := sortedScanValidate(s, partial)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s (partial %v): %v, sorted scan %v", name, partial, got, want)
		}
	}
}

// TestValidateMatchesSortedScanRandomEdits runs
// FuzzValidateMatchesSortedScan's property over seeded random edits.
func TestValidateMatchesSortedScanRandomEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 2000; trial++ {
		m, n := 1+rng.Intn(8), rng.Intn(150)
		clean, _, err := sim.Run(validateInstance(m, n, rand.New(rand.NewSource(int64(trial)))), sim.EFTRouter{})
		if err != nil {
			t.Fatal(err)
		}
		if trial%10 == 0 {
			checkValidate(t, fmt.Sprintf("trial %d, clean", trial), clean)
		}
		s := editValidate(clean, uint8(rng.Intn(6)), uint16(rng.Intn(1<<16)), int16(rng.Intn(1<<16)-1<<15))
		checkValidate(t, fmt.Sprintf("trial %d", trial), s)
	}
}

// FuzzValidateMatchesSortedScan: a random instance, its sim.Run schedule
// and one fuzz-chosen edit (a moved task, a start ±δ, a shared start,
// another machine or an unassigned task); Validate and ValidatePartial
// must return the sorted scan's exact error.
func FuzzValidateMatchesSortedScan(f *testing.F) {
	for kind := uint8(0); kind < 6; kind++ {
		f.Add(int64(kind+1), uint8(3+kind), uint8(40+9*kind), kind, uint16(7*kind), int16(37*int(kind)-70))
		f.Add(int64(kind+7), uint8(1+kind), uint8(200), kind, uint16(100+kind), int16(-4096*int(kind)))
	}
	f.Fuzz(func(t *testing.T, seed int64, m8, n8, kind uint8, pos uint16, d int16) {
		m, n := 1+int(m8)%16, int(n8)
		clean, _, err := sim.Run(validateInstance(m, n, rand.New(rand.NewSource(seed))), sim.EFTRouter{})
		if err != nil {
			t.Fatal(err)
		}
		checkValidate(t, "fuzz", editValidate(clean, kind, pos, d))
	})
}

// TestValidateAllocs: on a clean sim.Run schedule Validate and
// ValidatePartial keep one machine-indexed array, whatever n is: one
// allocation at n = 10³ and at n = 10⁴.
func TestValidateAllocs(t *testing.T) {
	const m = 15
	for _, n := range []int{1000, 10000} {
		rng := rand.New(rand.NewSource(int64(n)))
		tasks := make([]core.Task, n)
		r := 0.0
		for i := range tasks {
			r += rng.ExpFloat64() / (0.9 * m)
			tasks[i] = core.Task{Release: r, Proc: 1, Set: core.MustRingInterval(rng.Intn(m), 3, m)}
		}
		s, _, err := sim.Run(core.NewInstance(m, tasks), sim.EFTRouter{})
		if err != nil {
			t.Fatal(err)
		}
		for _, partial := range []bool{false, true} {
			check := s.Validate
			if partial {
				check = s.ValidatePartial
			}
			if err := check(); err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(5, func() { _ = check() }); allocs != 1 {
				t.Errorf("n = %d (partial %v): %v allocations per check, want 1", n, partial, allocs)
			}
		}
	}
}
