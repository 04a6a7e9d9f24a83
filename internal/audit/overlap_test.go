package audit

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/faults"
	"flowsched/internal/sim"
)

// sortedScanOverlaps is the overlap check overlapScan replaced: every
// execution the per-task checks let through (not dropped, rejected or shed,
// on a machine in range, with a finite start) is appended to its machine's
// list in task order, each list is sorted by start with sort.Slice, and each
// execution is checked against the one before it. Kept as the oracle the
// one-pass scan is checked against.
func sortedScanOverlaps(inst *core.Instance, s *core.Schedule, opts Options) []Violation {
	var segs [][]faults.Slowdown
	if opts.Plan != nil {
		segs = opts.Plan.Normalize().ServerSlowdowns()
	}
	flag := func(xs []bool, i int) bool { return xs != nil && xs[i] }
	type exec struct {
		id         int
		start, end core.Time
	}
	perMachine := make([][]exec, inst.M)
	for i, task := range inst.Tasks {
		if flag(opts.Dropped, i) || opts.Overload != nil && (flag(opts.Overload.Rejected, i) || flag(opts.Overload.Shed, i)) {
			continue
		}
		j, start := s.Machine[i], s.Start[i]
		if j < 0 || j >= inst.M || math.IsNaN(start) || math.IsInf(start, 0) {
			continue
		}
		end := start + task.Proc
		if segs != nil {
			end = faults.FinishTime(segs[j], start, task.Proc)
		}
		perMachine[j] = append(perMachine[j], exec{id: i, start: start, end: end})
	}
	var out []Violation
	for j, execs := range perMachine {
		sort.Slice(execs, func(a, b int) bool { return execs[a].start < execs[b].start })
		for x := 1; x < len(execs); x++ {
			prev, cur := execs[x-1], execs[x]
			if cur.start < prev.end-tol(prev.end) {
				out = append(out, Violation{Invariant: InvOverlap, Task: cur.id, Machine: j,
					Detail: fmt.Sprintf("starts at %v while task %d runs until %v", cur.start, prev.id, prev.end)})
			}
		}
	}
	return out
}

// oracleReport is the report the sorted scan builds: an audit without a
// violation limit, its overlaps replaced by sortedScanOverlaps' (they sit
// between the per-task checks and the hedge, resilience, lower-bound and
// FIFO ≡ EFT checks), cut at the limit as the audit's add cuts it.
func oracleReport(inst *core.Instance, s *core.Schedule, opts Options) *Report {
	limit := opts.MaxViolations
	if limit <= 0 {
		limit = 64
	}
	opts.MaxViolations = math.MaxInt
	full := Audit(inst, s, opts).Violations
	var pre, post []Violation
	for _, v := range full {
		switch v.Invariant {
		case InvOverlap:
		case InvHedge, InvResilience, InvLowerBound, InvFIFOEquiv:
			post = append(post, v)
		default:
			if len(post) > 0 {
				panic("a per-task violation after the later checks")
			}
			pre = append(pre, v)
		}
	}
	all := append(append(pre, sortedScanOverlaps(inst, s, opts)...), post...)
	r := &Report{}
	if len(all) > limit {
		all, r.Truncated = all[:limit], true
	}
	if len(all) > 0 {
		r.Violations = all
	}
	return r
}

func checkSortedScan(t *testing.T, name string, inst *core.Instance, s *core.Schedule, opts Options) *Report {
	t.Helper()
	got, want := Audit(inst, s, opts), oracleReport(inst, s, opts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: one-pass report\n%s\nsorted-scan report\n%s", name, got, want)
	}
	return got
}

// TestAuditOverlapMatchesSortedScan holds the one-pass overlap check to the
// sorted scan on hand-built schedules: equal starts on one machine, a
// machine whose starts go backwards in task order, zero-proc tasks,
// dropped, rejected and shed tasks, an overlap under a slowdown plan, and
// more overlaps than MaxViolations.
func TestAuditOverlapMatchesSortedScan(t *testing.T) {
	unit := func(m int, releases ...core.Time) *core.Instance {
		tasks := make([]core.Task, len(releases))
		for i, r := range releases {
			tasks[i] = core.Task{Release: r, Proc: 1}
		}
		return core.NewInstance(m, tasks)
	}
	assign := func(inst *core.Instance, at ...[2]float64) *core.Schedule {
		s := core.NewSchedule(inst)
		for i, a := range at {
			s.Assign(i, int(a[0]), a[1])
		}
		return s
	}
	skip := Options{SkipLowerBound: true, SkipFIFOEquiv: true}

	inst := unit(2, 0, 0, 0, 0)
	r := checkSortedScan(t, "equal starts", inst, assign(inst, [2]float64{0, 0}, [2]float64{0, 0}, [2]float64{1, 0}, [2]float64{0, 0.5}), Options{})
	if !violated(r, InvOverlap) {
		t.Fatalf("equal starts: no overlap in\n%s", r)
	}

	inst = unit(3, 0, 0, 0, 0, 0, 0)
	r = checkSortedScan(t, "starts going backwards", inst, assign(inst,
		[2]float64{0, 4}, [2]float64{1, 0}, [2]float64{0, 2.5}, [2]float64{0, 0}, [2]float64{1, 0.5}, [2]float64{0, 3.2}), skip)
	if !violated(r, InvOverlap) {
		t.Fatalf("starts going backwards: no overlap in\n%s", r)
	}

	zero := core.NewInstance(1, []core.Task{{Release: 0, Proc: 0}, {Release: 0, Proc: 0}, {Release: 0, Proc: 1}, {Release: 1, Proc: 0}, {Release: 1, Proc: 1}})
	checkSortedScan(t, "zero-proc tasks", zero, assign(zero,
		[2]float64{0, 0}, [2]float64{0, 0}, [2]float64{0, 0}, [2]float64{0, 1}, [2]float64{0, 0.5}), skip)

	inst = unit(2, 0, 0, 0, 0, 0, 0, 0)
	s := assign(inst, [2]float64{0, 0}, [2]float64{0, 0.5}, [2]float64{0, 0.2}, [2]float64{1, 0}, [2]float64{1, 0.5}, [2]float64{0, 3}, [2]float64{1, 3})
	s.Assign(2, -1, math.NaN())
	opts := Options{
		Dropped:        []bool{false, true, true, false, false, false, false},
		Overload:       &OverloadInfo{Rejected: []bool{false, false, false, true, false, false, false}, Shed: []bool{false, false, false, false, false, true, true}},
		SkipLowerBound: true,
	}
	checkSortedScan(t, "dropped, rejected and shed", inst, s, opts)

	inst = unit(2, 0, 1, 2, 3)
	plan := &faults.Plan{M: 2, Slowdowns: []faults.Slowdown{{Server: 0, From: 0, Until: 10, Factor: 2}}}
	r = checkSortedScan(t, "slowdown", inst, assign(inst, [2]float64{0, 0}, [2]float64{0, 1.5}, [2]float64{1, 2}, [2]float64{0, 3.5}), Options{Plan: plan})
	if !violated(r, InvOverlap) {
		t.Fatalf("slowdown: no overlap in\n%s", r)
	}

	// Overlaps on three machines, interleaved in task order, past the limit:
	// machine order decides which are kept. Machine 1 falls back to the sort.
	inst = unit(3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	at := make([][2]float64, inst.N())
	for i := range at {
		j := 2 - i%3
		start := 0.5 * float64(i/3)
		if j == 1 && i/3 == 2 {
			start = 0.25
		}
		at[i] = [2]float64{float64(j), start}
	}
	for _, limit := range []int{1, 2, 3, 5, 8, 64} {
		r = checkSortedScan(t, fmt.Sprintf("limit %d", limit), inst, assign(inst, at...), Options{MaxViolations: limit})
		if limit < 8 && !r.Truncated {
			t.Fatalf("limit %d: report not truncated:\n%s", limit, r)
		}
	}
}

// TestInSetMatchesContains: the audit's eligibility search is
// core.ProcSet.Contains, on sorted sets and on the unsorted, repeated and
// out-of-range members of unvalidated input.
func TestInSetMatchesContains(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		var set core.ProcSet
		if trial%10 > 0 {
			set = make(core.ProcSet, rng.Intn(8))
			for x := range set {
				set[x] = rng.Intn(12) - 2
			}
			if trial%3 == 0 {
				sort.Ints(set)
			}
		}
		for j := -3; j < 13; j++ {
			if got, want := inSet(set, j), set.Contains(j); got != want {
				t.Fatalf("set %v, machine %d: inSet %v, Contains %v", set, j, got, want)
			}
		}
	}
}

// editSchedule applies one edit to a copy of a clean schedule and returns
// it with the options to audit it under: kind 0 moves task i to another
// machine, 1 and 2 shift its start by +δ and −δ, 3 puts it on task o's
// machine at task o's start, 4 marks it dropped (and, for odd d, unassigns
// it). Any other kind leaves the schedule clean.
func editSchedule(inst *core.Instance, clean *core.Schedule, kind uint8, pos uint16, d int16) (*core.Schedule, Options) {
	s := &core.Schedule{Inst: inst, Machine: append([]int(nil), clean.Machine...), Start: append([]core.Time(nil), clean.Start...)}
	var opts Options
	n := inst.N()
	if n == 0 {
		return s, opts
	}
	i, o := int(pos)%n, int(uint16(d))%n
	delta := float64(d) / 64
	switch kind % 6 {
	case 0:
		s.Machine[i] = (s.Machine[i] + 1 + int(uint16(d))%inst.M) % inst.M
	case 1:
		s.Start[i] += math.Abs(delta)
	case 2:
		s.Start[i] -= math.Abs(delta)
	case 3:
		s.Machine[i], s.Start[i] = s.Machine[o], s.Start[o]
	case 4:
		opts.Dropped = make([]bool, n)
		opts.Dropped[i] = true
		if d%2 != 0 {
			s.Machine[i], s.Start[i] = -1, math.NaN()
		}
	}
	return s, opts
}

// TestAuditMatchesSortedScanRandomEdits runs FuzzAuditMatchesSortedScan's
// property over seeded random edits.
func TestAuditMatchesSortedScanRandomEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 400; trial++ {
		m, n := 1+rng.Intn(8), 1+rng.Intn(120)
		inst := randomInstance(m, n, rand.New(rand.NewSource(int64(trial))))
		clean, _, err := sim.Run(inst, sim.EFTRouter{})
		if err != nil {
			t.Fatal(err)
		}
		s, opts := editSchedule(inst, clean, uint8(rng.Intn(6)), uint16(rng.Intn(n)), int16(rng.Intn(1<<16)-1<<15))
		opts.MaxViolations = rng.Intn(4)
		checkSortedScan(t, fmt.Sprintf("trial %d", trial), inst, s, opts)
	}
}

// FuzzAuditMatchesSortedScan: a random instance, its sim.Run schedule and
// one fuzz-chosen edit (move a task to another machine, shift its start by
// ±δ, put it on another task's machine and start, or mark it dropped); the
// one-pass report must equal the sorted scan's.
func FuzzAuditMatchesSortedScan(f *testing.F) {
	for kind := uint8(0); kind < 6; kind++ {
		f.Add(int64(kind+1), uint8(3+kind), uint8(40+9*kind), kind, uint16(7*kind), int16(37*int(kind)-70))
	}
	f.Fuzz(func(t *testing.T, seed int64, m8, n8, kind uint8, pos uint16, d int16) {
		m, n := 1+int(m8)%16, 1+int(n8)
		inst := randomInstance(m, n, rand.New(rand.NewSource(seed)))
		clean, _, err := sim.Run(inst, sim.EFTRouter{})
		if err != nil {
			t.Fatal(err)
		}
		s, opts := editSchedule(inst, clean, kind, pos, d)
		checkSortedScan(t, "fuzz", inst, s, opts)
	})
}

// allocInstance is a paper-shaped instance for the allocation pin: m = 15,
// unit tasks at load 0.8, each restricted to the k-ring of a uniform
// primary (k = 0: nil sets).
func allocInstance(k, n int) *core.Instance {
	const m = 15
	rng := rand.New(rand.NewSource(int64(n + k)))
	tasks := make([]core.Task, n)
	r := 0.0
	for i := range tasks {
		r += rng.ExpFloat64() / (0.8 * m)
		tasks[i] = core.Task{ID: i, Release: r, Proc: 1}
		if k > 0 {
			tasks[i].Set = core.MustRingInterval(rng.Intn(m), k, m)
		}
	}
	return core.NewInstance(m, tasks)
}

// TestAuditAllocsIndependentOfN pins the default audit's allocations — the
// certified bound, the invariant scan and, on full sets, the Proposition 1
// spot-check — to the set family: on clean EFT-Min schedules, ten times the
// tasks allocate exactly as often, and within 60 (k = 3) and 30 (full sets)
// allocations.
func TestAuditAllocsIndependentOfN(t *testing.T) {
	for _, c := range []struct {
		k, ceiling int
	}{{3, 60}, {0, 30}} {
		var allocs []float64
		for _, n := range []int{1000, 10000} {
			inst := allocInstance(c.k, n)
			s, _, err := sim.Run(inst, sim.EFTRouter{})
			if err != nil {
				t.Fatal(err)
			}
			if r := Audit(inst, s, Options{}); !r.Ok() {
				t.Fatalf("k=%d, n=%d: %s", c.k, n, r)
			}
			allocs = append(allocs, testing.AllocsPerRun(5, func() { Audit(inst, s, Options{}) }))
		}
		if allocs[0] != allocs[1] || allocs[0] > float64(c.ceiling) {
			t.Errorf("k=%d: the default audit allocates %v times at n=10³ and %v at n=10⁴, want equal and at most %d",
				c.k, allocs[0], allocs[1], c.ceiling)
		}
	}
}
