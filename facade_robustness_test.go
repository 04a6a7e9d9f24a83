package flowsched_test

import (
	"math/rand"
	"strings"
	"testing"

	"flowsched"
)

// TestFacadeGrayAndCorrelatedFaults exercises the gray-failure and
// correlated-outage facade: generated plans, the Slow builder and the
// slowdown-aware faulty simulation.
func TestFacadeGrayAndCorrelatedFaults(t *testing.T) {
	gray := flowsched.GenerateGrayFaultPlan(6, 100, flowsched.GrayFaultConfig{
		MTBF: 20, MTTR: 10, MinFactor: 2, MaxFactor: 4,
	}, rand.New(rand.NewSource(7)))
	if len(gray.Slowdowns) == 0 {
		t.Fatal("expected slowdowns from GenerateGrayFaultPlan")
	}
	for _, s := range gray.Slowdowns {
		if s.Factor < 2 || s.Factor > 4 {
			t.Fatalf("factor %v outside configured range", s.Factor)
		}
	}

	corr := flowsched.GenerateCorrelatedFaultPlan(6, 100, flowsched.CorrelatedFaultConfig{
		Zones: 3, MTBF: 20, MTTR: 5,
	}, rand.New(rand.NewSource(8)))
	if len(corr.Outages) == 0 {
		t.Fatal("expected outages from GenerateCorrelatedFaultPlan")
	}
	if err := corr.Validate(); err != nil {
		t.Fatal(err)
	}

	// A scripted slowdown doubles the service time of the only machine.
	inst := flowsched.NewInstance(1, []flowsched.Task{{Release: 0, Proc: 10}})
	plan := flowsched.EmptyFaultPlan(1).Slow(0, 0, 100, 2)
	_, fm, err := flowsched.NewRunArena().Run(inst, flowsched.JSQRouter(), flowsched.SimConfig{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if fm.Flows[0] != 20 {
		t.Fatalf("flow under factor-2 slowdown = %v, want 20", fm.Flows[0])
	}
}

// TestFacadeAuditSchedule runs the auditor through the facade on a clean
// simulated schedule and on a hand-corrupted one.
func TestFacadeAuditSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	weights := flowsched.PopularityWeights(flowsched.PopularityShuffled, 8, 1, rng)
	inst, err := flowsched.GenerateWorkload(flowsched.WorkloadConfig{
		M: 8, N: 200, Rate: flowsched.RateForLoad(0.7, 8),
		Weights: weights, Strategy: flowsched.OverlappingReplication(3),
	}, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := flowsched.Simulate(inst, flowsched.EFTRouter(flowsched.TieMin))
	if err != nil {
		t.Fatal(err)
	}
	if rep := flowsched.AuditSchedule(inst, s, flowsched.AuditOptions{}); !rep.Ok() {
		t.Fatalf("clean schedule failed audit: %v", rep)
	}

	// Corrupt one assignment off its processing set; the auditor must flag it.
	bad := &flowsched.Schedule{
		Machine: append([]int(nil), s.Machine...),
		Start:   append([]flowsched.Time(nil), s.Start...),
	}
	victim := -1
	for i, task := range inst.Tasks {
		if task.Set != nil && len(task.Set) < inst.M {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no restricted task to corrupt")
	}
	for j := 0; j < inst.M; j++ {
		if !inst.Tasks[victim].Set.Contains(j) {
			bad.Machine[victim] = j
			break
		}
	}
	rep := flowsched.AuditSchedule(inst, bad, flowsched.AuditOptions{})
	if rep.Ok() {
		t.Fatal("auditor missed an ineligible assignment")
	}
	var found bool
	for _, v := range rep.Violations {
		var _ flowsched.AuditViolation = v
		if v.Invariant == "eligibility" && v.Task == victim {
			found = true
		}
	}
	if !found {
		t.Fatalf("want an eligible violation for task %d, got %v", victim, rep.Violations)
	}
	if !strings.Contains(rep.String(), "eligibility") {
		t.Fatalf("report string %q lacks the invariant name", rep.String())
	}
}

// TestFacadeRunChaos runs a miniature chaos soak through the facade.
func TestFacadeRunChaos(t *testing.T) {
	sum, err := flowsched.RunChaos(flowsched.ChaosConfig{
		Trials: 25, Seed: 3, MaxM: 6, MaxN: 80,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Trials != 25 {
		t.Fatalf("ran %d trials, want 25", sum.Trials)
	}
	if !sum.Ok() {
		var repro *flowsched.ChaosRepro = sum.Failures[0].Repro
		t.Fatalf("chaos soak found violations: %+v (repro %v)", sum.Failures[0].Violations, repro)
	}
	var _ flowsched.Slowdown
	var _ flowsched.AuditReport
}
