package flowsched_test

import (
	"math/rand"
	"strings"
	"testing"

	"flowsched"
)

// Exercise the facade wrappers end to end so every public entry point is
// covered by at least one test.

func TestFacadeAdversaryWrappers(t *testing.T) {
	eft := flowsched.NewEFT(flowsched.TieMin)
	if r, err := flowsched.AdversaryFixedSizeK(eft, 9, 3, 0); err != nil || r.Ratio < r.TheoryRatio-0.01 {
		t.Fatalf("FixedSizeK: %v %v", r, err)
	}
	if r, err := flowsched.AdversaryNested(flowsched.NewEFT(flowsched.TieMin), 8); err != nil || r.Ratio < r.TheoryRatio-1e-9 {
		t.Fatalf("Nested: %v %v", r, err)
	}
	if r, err := flowsched.AdversaryInterval(flowsched.NewEFT(flowsched.TieMin), 500); err != nil || r.Ratio < 1.9 {
		t.Fatalf("Interval: %v %v", r, err)
	}
	if r, err := flowsched.AdversaryEFTStreamPadded(flowsched.TieMax, 6, 3, 0); err != nil || r.AlgFmax < 4 {
		t.Fatalf("Padded: %v %v", r, err)
	}
	inst, s := flowsched.EFTStreamSchedule(flowsched.TieMin, 6, 3, 2)
	if inst.N() != 12 || s.Validate() != nil {
		t.Fatalf("EFTStreamSchedule broken")
	}
}

func TestFacadeSmallWrappers(t *testing.T) {
	if s, err := flowsched.MachineRingInterval(5, 3, 6); err != nil || s.Len() != 3 {
		t.Fatalf("MachineRingInterval = %v, %v", s, err)
	}
	if _, err := flowsched.MachineRingInterval(0, 4, 3); err == nil {
		t.Fatalf("MachineRingInterval(0,4,3) should error: k exceeds the ring size")
	}
	if flowsched.AverageLoad(7.5, 15) != 0.5 {
		t.Fatalf("AverageLoad wrong")
	}
	rng := rand.New(rand.NewSource(1))
	tie := flowsched.TieRand(rng)
	if tie.Pick([]int{4}) != 4 {
		t.Fatalf("TieRand singleton")
	}
	if flowsched.NoReplication().Set(2, 5).Len() != 1 {
		t.Fatalf("NoReplication")
	}
	if flowsched.OffsetDisjointReplication(2, 1).Set(0, 6).Len() != 2 {
		t.Fatalf("OffsetDisjointReplication")
	}
	if flowsched.RandomReplication(3, rng).Set(0, 8).Len() != 3 {
		t.Fatalf("RandomReplication")
	}
	mo := flowsched.NewMaxLoadModel(flowsched.ZipfWeights(6, 1), flowsched.OverlappingReplication(2))
	if mo.MaxLoad() <= 0 {
		t.Fatalf("NewMaxLoadModel")
	}
	// MaxLoad beyond the m ≤ 25 limit of the old Hall enumeration.
	big := flowsched.MaxLoad(flowsched.ZipfWeights(30, 0), flowsched.DisjointReplication(3))
	if big < 29.9 {
		t.Fatalf("MaxLoad(m=30 uniform) = %v, want ≈ 30", big)
	}
	fam := flowsched.FamilyOf(flowsched.NewInstance(4, []flowsched.Task{
		{Release: 0, Proc: 1, Set: flowsched.MachineInterval(0, 1)},
	}))
	if len(fam.Sets) != 1 {
		t.Fatalf("FamilyOf")
	}
}

func TestFacadeSchedulersAndTimeline(t *testing.T) {
	inst := flowsched.NewInstance(2, []flowsched.Task{
		{Release: 0, Proc: 1},
		{Release: 0, Proc: 1},
		{Release: 1, Proc: 1},
	})
	hs, err := flowsched.NewEFT(flowsched.TieMin).Run(inst)
	if err != nil || hs.Validate() != nil {
		t.Fatalf("NewEFT: %v", err)
	}
	js, err := flowsched.NewJSQ().Run(inst)
	if err != nil || js.Validate() != nil {
		t.Fatalf("NewJSQ: %v", err)
	}
	var b strings.Builder
	flowsched.WriteMachineTimeline(&b, hs, 0)
	if !strings.Contains(b.String(), "M1:") {
		t.Fatalf("timeline output: %q", b.String())
	}
	// Adapter wrapper on a disjoint instance.
	dis := flowsched.NewInstance(4, []flowsched.Task{
		{Release: 0, Proc: 1, Set: flowsched.MachineInterval(0, 1)},
		{Release: 0, Proc: 1, Set: flowsched.MachineInterval(2, 3)},
	})
	ad := flowsched.NewPerSetAdapter("EFT-Min", func() flowsched.OnlineScheduler {
		return flowsched.NewEFT(flowsched.TieMin)
	})
	as, err := ad.Run(dis)
	if err != nil || as.Validate() != nil {
		t.Fatalf("NewPerSetAdapter: %v", err)
	}
	// NewSchedule + manual assignment.
	man := flowsched.NewSchedule(inst)
	man.Assign(0, 0, 0)
	man.Assign(1, 1, 0)
	man.Assign(2, 0, 1)
	if err := man.Validate(); err != nil {
		t.Fatalf("manual schedule: %v", err)
	}
	// Remaining simple routers.
	if _, _, err := flowsched.Simulate(inst, flowsched.JSQRouter()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := flowsched.Simulate(inst, flowsched.RandomRouter(rand.New(rand.NewSource(2)))); err != nil {
		t.Fatal(err)
	}
}

func TestPublicRatioHarness(t *testing.T) {
	sum, err := flowsched.MeasureCompetitiveness(
		flowsched.NewEFT(flowsched.TieMin),
		flowsched.UniformInstances(2, 8, 4, 2),
		flowsched.ExactBaseline(),
		30, 1,
	)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Worst > flowsched.CompetitiveBoundFIFO(2)+1e-9 {
		t.Fatalf("worst ratio %v exceeds Theorem 1 bound (seed %d)", sum.Worst, sum.WorstSeed)
	}
	sum2, err := flowsched.MeasureCompetitiveness(
		flowsched.NewEFT(flowsched.TieMin),
		flowsched.DisjointInstances(3, 2, 8, 3, 2),
		flowsched.LowerBoundBaseline(),
		20, 2,
	)
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Worst < 1-1e-9 {
		t.Fatalf("ratio vs lower bound below 1: %+v", sum2)
	}
}

func TestPublicPreemptiveLmax(t *testing.T) {
	inst := flowsched.NewInstance(1, []flowsched.Task{
		{Release: 0, Proc: 1},
		{Release: 0, Proc: 1},
	})
	if !flowsched.PreemptiveFeasibleDeadlines(inst, []flowsched.Time{1, 2}) {
		t.Fatal("staggered deadlines should be feasible")
	}
	l, err := flowsched.PreemptiveOptimalLmax(inst, []flowsched.Time{1, 1}, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if l < 1-1e-5 || l > 1+1e-5 {
		t.Fatalf("Lmax = %v, want 1", l)
	}
}
