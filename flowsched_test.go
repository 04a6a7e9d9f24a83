package flowsched_test

import (
	"math"
	"math/rand"
	"testing"

	"flowsched"
)

func TestQuickstartFlow(t *testing.T) {
	// Schedule four restricted tasks with EFT-Min through the public API.
	inst := flowsched.NewInstance(3, []flowsched.Task{
		{Release: 0, Proc: 2, Set: flowsched.MachineInterval(0, 1)},
		{Release: 0, Proc: 1, Set: flowsched.MachineInterval(1, 2)},
		{Release: 1, Proc: 1}, // unrestricted
		{Release: 1, Proc: 2, Set: flowsched.NewProcSet(0)},
	})
	s, err := flowsched.NewEFT(flowsched.TieMin).Run(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.MaxFlow() <= 0 {
		t.Fatalf("Fmax = %v", s.MaxFlow())
	}
	lb := flowsched.LowerBound(inst)
	opt, err := flowsched.OptimalBruteForce(inst)
	if err != nil {
		t.Fatal(err)
	}
	if lb > opt.MaxFlow()+1e-9 || s.MaxFlow() < opt.MaxFlow()-1e-9 {
		t.Fatalf("lb %v ≤ opt %v ≤ eft %v violated", lb, opt.MaxFlow(), s.MaxFlow())
	}
}

func TestPublicKVStorePipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := 9
	weights := flowsched.PopularityWeights(flowsched.PopularityShuffled, m, 1, rng)
	inst, err := flowsched.GenerateWorkload(flowsched.WorkloadConfig{
		M: m, N: 2000, Rate: flowsched.RateForLoad(0.7, m),
		Weights:  weights,
		Strategy: flowsched.OverlappingReplication(3),
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	structures := flowsched.Structures(inst)
	found := false
	for _, s := range structures {
		if s == "interval" {
			found = true
		}
	}
	if !found {
		t.Fatalf("overlapping replication should yield interval structure, got %v", structures)
	}
	sch, metrics, err := flowsched.Simulate(inst, flowsched.EFTRouter(flowsched.TieMin))
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.Validate(); err != nil {
		t.Fatal(err)
	}
	if metrics.MaxFlow() < 1 || metrics.Utilization() <= 0 {
		t.Fatalf("metrics implausible: Fmax=%v util=%v", metrics.MaxFlow(), metrics.Utilization())
	}
}

func TestPublicMaxLoad(t *testing.T) {
	m := 12
	w := flowsched.ZipfWeights(m, 1)
	ov := flowsched.MaxLoad(w, flowsched.OverlappingReplication(3))
	dj := flowsched.MaxLoad(w, flowsched.DisjointReplication(3))
	if ov < dj-1e-9 {
		t.Fatalf("overlapping max load %v below disjoint %v", ov, dj)
	}
	if p := flowsched.MaxLoadPercent(ov, m); p <= 0 || p > 100+1e-9 {
		t.Fatalf("percent = %v", p)
	}
	// Unbiased weights: both tolerate 100%.
	u := flowsched.ZipfWeights(m, 0)
	if got := flowsched.MaxLoadPercent(flowsched.MaxLoad(u, flowsched.DisjointReplication(3)), m); math.Abs(got-100) > 1e-6 {
		t.Fatalf("uniform disjoint max load = %v%%", got)
	}
	// A nil processing set means all machines: λ* = m / ΣP.
	if got := flowsched.MaxLoad(flowsched.ZipfWeights(4, 1), allMachines{}); math.Abs(got-4) > 1e-9 {
		t.Fatalf("unrestricted max load = %v, want 4", got)
	}
}

// allMachines is a replication strategy without processing sets: every
// primary's set is nil, meaning all machines.
type allMachines struct{}

func (allMachines) Name() string                   { return "all" }
func (allMachines) Set(u, m int) flowsched.ProcSet { return nil }

func TestPublicAdversaries(t *testing.T) {
	res, err := flowsched.AdversaryEFTStream(flowsched.TieMin, 8, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.AlgFmax < flowsched.EFTIntervalLowerBound(8, 3) {
		t.Fatalf("stream Fmax %v below bound %v", res.AlgFmax, flowsched.EFTIntervalLowerBound(8, 3))
	}
	incl, err := flowsched.AdversaryInclusive(flowsched.NewEFT(nil), 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if incl.Ratio < incl.TheoryRatio-0.01 {
		t.Fatalf("inclusive ratio %v below theory %v", incl.Ratio, incl.TheoryRatio)
	}
	// Stable profile helper agrees with the stream's limit.
	prof := flowsched.EFTStreamProfiles(flowsched.TieMin, 6, 3, 6*6*6)
	stable := flowsched.EFTStableProfile(6, 3)
	last := prof[len(prof)-1]
	for j := range stable {
		if last[j] != stable[j] {
			t.Fatalf("profile %v != stable %v", last, stable)
		}
	}
}

func TestPublicBounds(t *testing.T) {
	if flowsched.CompetitiveBoundFIFO(1) != 1 {
		t.Fatalf("FIFO bound on one machine must be 1 (optimal)")
	}
	if flowsched.CompetitiveBoundDisjoint(2) != 2 {
		t.Fatalf("disjoint bound for k=2 must be 2")
	}
}

func TestProposition1PublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tasks := make([]flowsched.Task, 40)
	tm := 0.0
	for i := range tasks {
		tm += rng.ExpFloat64()
		tasks[i] = flowsched.Task{Release: tm, Proc: 0.3 + rng.Float64()}
	}
	inst := flowsched.NewInstance(4, tasks)
	eft, err := flowsched.NewEFT(flowsched.TieMin).Run(inst)
	if err != nil {
		t.Fatal(err)
	}
	fifo, err := flowsched.NewFIFO(flowsched.TieMin).Run(inst)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tasks {
		if eft.Machine[i] != fifo.Machine[i] || eft.Start[i] != fifo.Start[i] {
			t.Fatalf("Proposition 1 violated at task %d", i)
		}
	}
}

func TestOnlineSchedulerInterface(t *testing.T) {
	var alg flowsched.OnlineScheduler = flowsched.NewEFT(flowsched.TieMax)
	inst := flowsched.NewInstance(2, []flowsched.Task{
		{Release: 0, Proc: 1},
		{Release: 0, Proc: 1},
	})
	s := flowsched.RunOnline(alg, inst)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Machine[0] != 1 { // TieMax picks the highest-index idle machine
		t.Fatalf("first task on M%d, want M2", s.Machine[0]+1)
	}
}

func TestOptimalUnitPublic(t *testing.T) {
	inst := flowsched.NewInstance(2, []flowsched.Task{
		{Release: 0, Proc: 1},
		{Release: 0, Proc: 1},
		{Release: 0, Proc: 1},
	})
	f, err := flowsched.OptimalUnit(inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f != 2 {
		t.Fatalf("OptimalUnit = %v, want 2", f)
	}
}
