package flowsched_test

import (
	"math/rand"
	"reflect"
	"testing"

	"flowsched"
)

// TestFacadeElastic exercises the elastic-membership facade end to end: a
// scripted scale-down/scale-up run produces a membership log and churn
// counters, a zero SimConfig reproduces Simulate's schedule, and the
// effective-set walk is exposed.
func TestFacadeElastic(t *testing.T) {
	inst, err := flowsched.GenerateWorkload(flowsched.WorkloadConfig{
		M: 6, N: 300, Rate: flowsched.RateForLoad(0.7, 6),
		Strategy: flowsched.OverlappingReplication(3),
	}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	router := flowsched.EFTRouter(flowsched.TieMin)

	// A zero SimConfig gives Simulate's schedule and flows.
	sG, mG, err := flowsched.Simulate(inst, router)
	if err != nil {
		t.Fatal(err)
	}
	sE, mE, err := flowsched.NewRunArena().Run(inst, router, flowsched.SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sG, sE) || !reflect.DeepEqual(mG.Flows, mE.Flows) {
		t.Fatal("zero SimConfig diverges from Simulate")
	}
	if mE.Membership != nil || mE.Dispatched != nil {
		t.Fatal("nil elastic config produced a membership log")
	}

	// Scripted churn: drain two machines mid-run, add one back with warm-up.
	horizon := mG.Makespan
	ecfg := &flowsched.ElasticConfig{
		Initial: 6, Min: 3, Max: 6, WarmUp: 0.5,
		Script: []flowsched.ScaleEvent{
			{At: horizon / 4, Delta: -2},
			{At: horizon / 2, Delta: 1},
		},
	}
	_, em, err := flowsched.NewRunArena().Run(inst, router, flowsched.SimConfig{Elastic: ecfg})
	if err != nil {
		t.Fatal(err)
	}
	if em.Membership == nil || len(em.Membership.Changes) == 0 {
		t.Fatal("scripted churn left no membership log")
	}
	if em.ScaleDowns != 2 || em.ScaleUps != 1 {
		t.Fatalf("scale counters: %d down, %d up; want 2 and 1", em.ScaleDowns, em.ScaleUps)
	}
	if em.MachineHours <= 0 || em.MachineHours >= flowsched.Time(6)*em.Horizon {
		t.Fatalf("machine-hours %v implausible for a shrunk run over horizon %v",
			em.MachineHours, em.Horizon)
	}
	// No task lost: every task either completed (flow > 0 recorded) and none
	// were dropped, rejected or shed on this fault-free, unguarded run.
	for i := range inst.Tasks {
		if em.Dropped[i] {
			t.Fatalf("task %d lost to a drain", i)
		}
	}

	// The effective-set walk: members {0,1,3}, walk of width 2 from slot 2
	// lands on {3, 0}.
	got := flowsched.EffectiveSet([]bool{true, true, false, true, false, false}, 2, 2)
	want := flowsched.ProcSet{0, 3}
	if !reflect.DeepEqual(append(flowsched.ProcSet{}, got...), want) {
		t.Fatalf("EffectiveSet = %v, want %v", got, want)
	}
}
