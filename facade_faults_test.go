package flowsched_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"flowsched"
)

// TestFacadeFaultInjection exercises the fault facade end to end: plan
// generation, JSON round-trip, faulty simulation and the zero-fault
// equivalence with Simulate.
func TestFacadeFaultInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	weights := flowsched.PopularityWeights(flowsched.PopularityShuffled, 8, 1, rng)
	inst, err := flowsched.GenerateWorkload(flowsched.WorkloadConfig{
		M: 8, N: 600, Rate: flowsched.RateForLoad(0.6, 8),
		Weights: weights, Strategy: flowsched.OverlappingReplication(3),
	}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}

	// Zero-fault equivalence through the facade.
	s1, m1, err := flowsched.Simulate(inst, flowsched.EFTRouter(flowsched.TieMin))
	if err != nil {
		t.Fatal(err)
	}
	s2, m2, err := flowsched.NewRunArena().Run(inst, flowsched.EFTRouter(flowsched.TieMin), flowsched.SimConfig{Plan: flowsched.EmptyFaultPlan(8)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1.Machine, s2.Machine) || !reflect.DeepEqual(m1.Flows, m2.Flows) {
		t.Fatal("the engine under the empty plan diverged from Simulate")
	}
	if m2.Availability() != 1 || m2.DroppedCount() != 0 {
		t.Fatal("healthy run reported faults")
	}

	// Generated plan: JSON round-trip then a faulty run with failovers.
	horizon := inst.Tasks[inst.N()-1].Release
	plan := flowsched.GenerateFaultPlan(8, horizon, horizon/6, horizon/20, rand.New(rand.NewSource(3)))
	if plan.IsEmpty() {
		t.Fatal("expected outages from GenerateFaultPlan")
	}
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := flowsched.ReadFaultPlanJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan, back) {
		t.Fatal("fault plan JSON round trip changed the plan")
	}
	_, fm, err := flowsched.NewRunArena().Run(inst, flowsched.JSQRouter(), flowsched.SimConfig{Plan: back, Retry: flowsched.RetryPolicy{MaxAttempts: 4, Backoff: 0.1, BackoffFactor: 2, Timeout: horizon}})
	if err != nil {
		t.Fatal(err)
	}
	if fm.Availability() >= 1 {
		t.Fatalf("availability %v with a non-empty plan", fm.Availability())
	}
	if fm.TotalRetries() == 0 && fm.ParkedCount() == 0 {
		t.Fatal("heavy outages caused no failovers at all")
	}
	if fm.MaxFlow() <= 0 || fm.RecoverySpike() < 0 {
		t.Fatal("fault metrics incoherent")
	}

	// Scripted plan via the Outage/Down API.
	scripted := flowsched.EmptyFaultPlan(8).Down(0, 1, 5).Down(0, 2, 6)
	if err := scripted.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := scripted.Normalize().Outages; len(got) != 1 || (got[0] != flowsched.Outage{Server: 0, From: 1, Until: 6}) {
		t.Fatalf("Normalize merged to %v", got)
	}
}
