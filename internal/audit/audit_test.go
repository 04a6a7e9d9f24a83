package audit

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/faults"
	"flowsched/internal/obs"
	"flowsched/internal/sim"
)

func randomInstance(m, n int, rng *rand.Rand) *core.Instance {
	tasks := make([]core.Task, n)
	t := 0.0
	for i := range tasks {
		t += rng.ExpFloat64() / float64(m)
		var set core.ProcSet
		switch rng.Intn(3) {
		case 0: // unrestricted
		case 1:
			set = core.MustRingInterval(rng.Intn(m), 1+rng.Intn(m), m)
		default:
			k := 1 + rng.Intn(m)
			set = core.NewProcSet(rng.Perm(m)[:k]...)
		}
		tasks[i] = core.Task{Release: t, Proc: 0.5 + rng.Float64(), Set: set}
	}
	return core.NewInstance(m, tasks)
}

func violated(r *Report, invariant string) bool {
	for _, v := range r.Violations {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

// TestAuditCleanSimulatedRuns: schedules straight out of the simulator must
// audit clean, fault-free and under mixed crash + gray plans.
func TestAuditCleanSimulatedRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		m := 2 + rng.Intn(6)
		n := 1 + rng.Intn(80)
		inst := randomInstance(m, n, rng)

		s, _, err := sim.Run(inst, sim.EFTRouter{})
		if err != nil {
			t.Fatal(err)
		}
		if r := Audit(inst, s, Options{}); !r.Ok() {
			t.Fatalf("trial %d: fault-free audit failed:\n%s", trial, r)
		}

		crash := faults.Generate(m, 10, 8, 2, rng)
		gray := faults.GenerateGray(m, 10, faults.GrayConfig{MTBF: 6, MTTR: 3}, rng)
		plan := crash.Merge(gray)
		pol := sim.RetryPolicy{MaxAttempts: 4, Backoff: 0.05, BackoffFactor: 2, Timeout: 60}
		fs, fm, err := sim.NewArena().Run(inst, sim.EFTRouter{}, sim.Config{Plan: plan, Retry: pol})
		if err != nil {
			t.Fatal(err)
		}
		comps := make([]core.Time, n)
		for i, task := range inst.Tasks {
			comps[i] = task.Release + fm.Flows[i]
		}
		r := Audit(inst, fs, Options{Plan: plan, Completions: comps, Dropped: fm.Dropped})
		if !r.Ok() {
			t.Fatalf("trial %d: faulty audit failed:\n%s", trial, r)
		}
	}
}

func TestAuditCatchesReleaseViolation(t *testing.T) {
	inst := core.NewInstance(2, []core.Task{{Release: 5, Proc: 1}})
	s := core.NewSchedule(inst)
	s.Assign(0, 0, 3) // before release
	r := Audit(inst, s, Options{SkipLowerBound: true, SkipFIFOEquiv: true})
	if !violated(r, InvRelease) {
		t.Fatalf("want release violation, got:\n%s", r)
	}
}

func TestAuditCatchesEligibilityViolation(t *testing.T) {
	inst := core.NewInstance(3, []core.Task{{Release: 0, Proc: 1, Set: core.NewProcSet(0, 1)}})
	s := core.NewSchedule(inst)
	s.Assign(0, 2, 0) // outside the processing set
	r := Audit(inst, s, Options{SkipLowerBound: true, SkipFIFOEquiv: true})
	if !violated(r, InvEligible) {
		t.Fatalf("want eligibility violation, got:\n%s", r)
	}
}

func TestAuditCatchesOverlapAndLowerBound(t *testing.T) {
	inst := core.NewInstance(1, []core.Task{
		{Release: 0, Proc: 10},
		{Release: 0, Proc: 10},
	})
	s := core.NewSchedule(inst)
	s.Assign(0, 0, 0)
	s.Assign(1, 0, 0) // overlaps task 0, and Fmax 10 < LB 20
	r := Audit(inst, s, Options{SkipFIFOEquiv: true})
	if !violated(r, InvOverlap) {
		t.Fatalf("want overlap violation, got:\n%s", r)
	}
	if !violated(r, InvLowerBound) {
		t.Fatalf("want lower-bound violation, got:\n%s", r)
	}
}

func TestAuditCatchesCompletionMismatch(t *testing.T) {
	inst := core.NewInstance(1, []core.Task{{Release: 0, Proc: 10}})
	s := core.NewSchedule(inst)
	s.Assign(0, 0, 0)
	// Healthy: completion must be 10, not 12.
	r := Audit(inst, s, Options{Completions: []core.Time{12}, SkipLowerBound: true, SkipFIFOEquiv: true})
	if !violated(r, InvCompletion) {
		t.Fatalf("want completion violation, got:\n%s", r)
	}
	// Under a factor-2 slowdown the correct completion IS 20.
	plan := faults.Empty(1).Slow(0, 0, 100, 2)
	r = Audit(inst, s, Options{Plan: plan, Completions: []core.Time{20}, SkipLowerBound: true, SkipFIFOEquiv: true})
	if !r.Ok() {
		t.Fatalf("slowdown-adjusted completion should pass, got:\n%s", r)
	}
	r = Audit(inst, s, Options{Plan: plan, Completions: []core.Time{10}, SkipLowerBound: true, SkipFIFOEquiv: true})
	if !violated(r, InvCompletion) {
		t.Fatalf("want completion violation under slowdown, got:\n%s", r)
	}
}

func TestAuditCatchesDowntimeOverlap(t *testing.T) {
	inst := core.NewInstance(2, []core.Task{{Release: 0, Proc: 10}})
	s := core.NewSchedule(inst)
	s.Assign(0, 0, 0)
	plan := faults.Empty(2).Down(0, 5, 8) // execution [0,10) crosses the outage
	r := Audit(inst, s, Options{Plan: plan, SkipLowerBound: true, SkipFIFOEquiv: true})
	if !violated(r, InvDowntime) {
		t.Fatalf("want downtime violation, got:\n%s", r)
	}
	// The same plan on the other machine is fine.
	s.Assign(0, 1, 0)
	if r := Audit(inst, s, Options{Plan: plan, SkipLowerBound: true, SkipFIFOEquiv: true}); !r.Ok() {
		t.Fatalf("execution on live machine flagged:\n%s", r)
	}
}

func TestAuditCatchesAssignmentViolations(t *testing.T) {
	inst := core.NewInstance(2, []core.Task{
		{Release: 0, Proc: 1},
		{Release: 0, Proc: 1},
	})
	s := core.NewSchedule(inst)
	s.Assign(0, 5, 0) // machine out of range
	s.Assign(1, 0, 0)
	r := Audit(inst, s, Options{Dropped: []bool{false, true}, SkipLowerBound: true, SkipFIFOEquiv: true})
	if !violated(r, InvAssignment) {
		t.Fatalf("want assignment violations, got:\n%s", r)
	}
	found := 0
	for _, v := range r.Violations {
		if v.Invariant == InvAssignment {
			found++
		}
	}
	if found != 2 { // out-of-range machine + assigned-but-dropped
		t.Fatalf("want 2 assignment violations, got %d:\n%s", found, r)
	}
	// A dropped task left unassigned is fine.
	s.Machine[1] = -1
	s.Start[1] = math.NaN()
	s.Machine[0] = 0
	r = Audit(inst, s, Options{Dropped: []bool{false, true}, SkipLowerBound: true, SkipFIFOEquiv: true})
	if !r.Ok() {
		t.Fatalf("unassigned dropped task flagged:\n%s", r)
	}
}

func TestAuditShapeMismatch(t *testing.T) {
	inst := core.NewInstance(2, []core.Task{{Release: 0, Proc: 1}})
	other := core.NewInstance(2, []core.Task{{Release: 0, Proc: 1}, {Release: 1, Proc: 1}})
	s := core.NewSchedule(other)
	if r := Audit(inst, s, Options{}); !violated(r, InvShape) {
		t.Fatalf("want shape violation, got:\n%s", r)
	}
	s2 := core.NewSchedule(inst)
	s2.Assign(0, 0, 0)
	if r := Audit(inst, s2, Options{Completions: []core.Time{1, 2}}); !violated(r, InvShape) {
		t.Fatal("want shape violation for completions length")
	}
	if r := Audit(inst, s2, Options{Dropped: []bool{false, false}}); !violated(r, InvShape) {
		t.Fatal("want shape violation for dropped length")
	}
	if r := Audit(inst, s2, Options{Plan: faults.Empty(3)}); !violated(r, InvShape) {
		t.Fatal("want shape violation for plan cluster size")
	}
}

func TestAuditFIFOEquivRunsOnUnrestricted(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tasks := make([]core.Task, 40)
	tt := 0.0
	for i := range tasks {
		tt += rng.ExpFloat64() / 3
		tasks[i] = core.Task{Release: tt, Proc: 0.5 + rng.Float64()}
	}
	inst := core.NewInstance(3, tasks)
	s, _, err := sim.Run(inst, sim.EFTRouter{})
	if err != nil {
		t.Fatal(err)
	}
	if r := Audit(inst, s, Options{}); !r.Ok() {
		t.Fatalf("unrestricted audit with FIFO spot-check failed:\n%s", r)
	}
}

func TestAuditReportTruncationAndFormat(t *testing.T) {
	inst := core.NewInstance(1, []core.Task{
		{Release: 5, Proc: 1},
		{Release: 5, Proc: 1},
		{Release: 5, Proc: 1},
	})
	s := core.NewSchedule(inst)
	for i := 0; i < 3; i++ {
		s.Assign(i, 0, 0) // all before release, all overlapping
	}
	r := Audit(inst, s, Options{MaxViolations: 2, SkipLowerBound: true, SkipFIFOEquiv: true})
	if len(r.Violations) != 2 || !r.Truncated {
		t.Fatalf("want 2 violations truncated, got %d (truncated=%v)", len(r.Violations), r.Truncated)
	}
	if r.Err() == nil || r.Ok() {
		t.Fatal("truncated report must error")
	}
	if !strings.Contains(r.String(), "truncated") {
		t.Fatalf("String() should mention truncation: %s", r)
	}
	clean := &Report{}
	if clean.Err() != nil || !clean.Ok() || clean.String() != "audit: ok" {
		t.Fatalf("clean report misbehaves: %q / %v", clean.String(), clean.Err())
	}
}

func TestAuditEmptyInstance(t *testing.T) {
	inst := core.NewInstance(2, nil)
	s := core.NewSchedule(inst)
	if r := Audit(inst, s, Options{}); !r.Ok() {
		t.Fatalf("empty instance should audit clean:\n%s", r)
	}
}

// TestAuditAttachesEvidence: with a flight recorder supplied, a violation
// naming a task carries that task's raw event history; without one (or for
// machine-level violations) the report stays evidence-free.
func TestAuditAttachesEvidence(t *testing.T) {
	inst := core.NewInstance(2, []core.Task{{Release: 0, Proc: 1}, {Release: 5, Proc: 1}})
	s := core.NewSchedule(inst)
	s.Assign(0, 1, 0) // clean
	s.Assign(1, 0, 3) // before release → violation names task 1

	rec := obs.NewFlightRecorder(16)
	probe := obs.Multi(rec)
	probe.OnArrival(0, 0)
	probe.OnArrival(1, 5)
	probe.OnDispatch(1, 0, 5, 3, 4)

	opts := Options{SkipLowerBound: true, SkipFIFOEquiv: true, Recorder: rec}
	r := Audit(inst, s, opts)
	if !violated(r, InvRelease) {
		t.Fatalf("want release violation, got:\n%s", r)
	}
	evs, ok := r.Evidence[1]
	if !ok || len(evs) != 2 {
		t.Fatalf("task 1 evidence = %+v, want its 2 recorded events", r.Evidence)
	}
	if evs[0].Ev != "arrival" || evs[1].Ev != "dispatch" {
		t.Fatalf("task 1 evidence kinds = %q, %q", evs[0].Ev, evs[1].Ev)
	}
	if _, ok := r.Evidence[0]; ok {
		t.Fatal("clean task 0 must not appear in the evidence map")
	}

	// No recorder → no evidence, same violations.
	opts.Recorder = nil
	if r := Audit(inst, s, opts); r.Evidence != nil {
		t.Fatalf("evidence without a recorder: %+v", r.Evidence)
	}
}
