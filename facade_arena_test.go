package flowsched_test

import (
	"math/rand"
	"reflect"
	"testing"

	"flowsched"
)

// TestFacadeRunArena exercises the exported run arena end to end: one arena
// reused across faulty and guarded elastic runs reproduces a fresh arena's
// runs exactly, run after run.
func TestFacadeRunArena(t *testing.T) {
	inst, err := flowsched.GenerateWorkload(flowsched.WorkloadConfig{
		M: 6, N: 300, Rate: flowsched.RateForLoad(0.9, 6),
		Strategy: flowsched.OverlappingReplication(3),
	}, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	router := flowsched.EFTRouter(flowsched.TieMin)
	plan := flowsched.EmptyFaultPlan(6).Down(2, 3, 8)
	cfg := &flowsched.OverloadConfig{Admission: flowsched.DeadlineAdmission(15)}
	ecfg := &flowsched.ElasticConfig{
		Initial: 6, Min: 3, Max: 6, WarmUp: 0.5,
		Script: []flowsched.ScaleEvent{{At: 5, Delta: -2}},
	}

	arena := flowsched.NewRunArena()
	for run := 0; run < 3; run++ { // repeat: reuse must stay exact run after run
		sW, fmW, err := flowsched.NewRunArena().Run(inst, router, flowsched.SimConfig{Plan: plan, Retry: flowsched.RetryPolicy{MaxAttempts: 2}})
		if err != nil {
			t.Fatal(err)
		}
		sA, fmA, err := arena.Run(inst, router, flowsched.SimConfig{Plan: plan, Retry: flowsched.RetryPolicy{MaxAttempts: 2}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sW.Machine, sA.Machine) || !reflect.DeepEqual(fmW.Attempts, fmA.Attempts) {
			t.Fatalf("run %d: reused arena diverges from a fresh one on the faulty run", run)
		}

		_, emW, err := flowsched.NewRunArena().Run(inst, router, flowsched.SimConfig{Plan: plan, Retry: flowsched.RetryPolicy{MaxAttempts: 2}, Overload: cfg, Elastic: ecfg})
		if err != nil {
			t.Fatal(err)
		}
		_, emA, err := arena.Run(inst, router, flowsched.SimConfig{Plan: plan, Retry: flowsched.RetryPolicy{MaxAttempts: 2}, Overload: cfg, Elastic: ecfg})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(emW.Rejected, emA.Rejected) ||
			!reflect.DeepEqual(emW.Membership, emA.Membership) ||
			emW.Handoffs != emA.Handoffs {
			t.Fatalf("run %d: reused arena diverges from a fresh one on the elastic run", run)
		}
	}
}
