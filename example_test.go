package flowsched_test

import (
	"fmt"
	"math/rand"
	"os"

	"flowsched"
)

// ExampleNewEFT schedules three restricted tasks with the paper's EFT
// algorithm and prints the resulting assignment.
func ExampleNewEFT() {
	inst := flowsched.NewInstance(2, []flowsched.Task{
		{Release: 0, Proc: 2, Set: flowsched.NewProcSet(0)},         // only M1
		{Release: 0, Proc: 1},                                       // anywhere
		{Release: 1, Proc: 1, Set: flowsched.MachineInterval(0, 1)}, // M1 or M2
	})
	s, err := flowsched.NewEFT(flowsched.TieMin).Run(inst)
	if err != nil {
		panic(err)
	}
	for i := range inst.Tasks {
		fmt.Printf("task %d -> M%d at t=%v\n", i, s.Machine[i]+1, s.Start[i])
	}
	fmt.Printf("Fmax = %v\n", s.MaxFlow())
	// Output:
	// task 0 -> M1 at t=0
	// task 1 -> M2 at t=0
	// task 2 -> M2 at t=1
	// Fmax = 2
}

// ExampleMaxLoad computes the theoretical maximum cluster load (LP (15))
// for both replication strategies under a worst-case Zipf bias.
func ExampleMaxLoad() {
	weights := flowsched.ZipfWeights(6, 1) // P(E_j) = 1/(j·H_6)
	ov := flowsched.MaxLoad(weights, flowsched.OverlappingReplication(3))
	dj := flowsched.MaxLoad(weights, flowsched.DisjointReplication(3))
	fmt.Printf("overlapping: %.1f%%\n", flowsched.MaxLoadPercent(ov, 6))
	fmt.Printf("disjoint:    %.1f%%\n", flowsched.MaxLoadPercent(dj, 6))
	// Output:
	// overlapping: 100.0%
	// disjoint:    66.8%
}

// ExampleAdversaryEFTStream reproduces the paper's headline lower bound:
// the Theorem 8 stream drives EFT-Min to Fmax = m − k + 1 while the
// optimal schedule keeps every flow at 1.
func ExampleAdversaryEFTStream() {
	res, err := flowsched.AdversaryEFTStream(flowsched.TieMin, 6, 3, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("EFT-Min Fmax = %v, OPT = %v, ratio = %v (theory ≥ %v)\n",
		res.AlgFmax, res.OptFmax, res.Ratio, res.TheoryRatio)
	// Output:
	// EFT-Min Fmax = 4, OPT = 1, ratio = 4 (theory ≥ 4)
}

// ExampleStructures classifies the processing sets of an instance into the
// structures of Figure 1.
func ExampleStructures() {
	inst := flowsched.NewInstance(4, []flowsched.Task{
		{Release: 0, Proc: 1, Set: flowsched.MachineInterval(0, 1)},
		{Release: 0, Proc: 1, Set: flowsched.MachineInterval(2, 3)},
	})
	fmt.Println(flowsched.Structures(inst))
	// Output:
	// [disjoint nested interval]
}

// ExampleTrace derives the event trace of a schedule.
func ExampleTrace() {
	inst := flowsched.NewInstance(1, []flowsched.Task{
		{Release: 0, Proc: 1},
		{Release: 0, Proc: 1},
	})
	s, err := flowsched.NewEFT(nil).Run(inst)
	if err != nil {
		panic(err)
	}
	flowsched.WriteTrace(os.Stdout, flowsched.Trace(s))
	peak, _ := flowsched.PeakBacklog(flowsched.Trace(s))
	fmt.Printf("peak backlog: %d\n", peak)
	// Output:
	// 0.0000  arrival     task 0
	//     0.0000  arrival     task 1
	//     0.0000  start       task 0    on M1
	//     1.0000  completion  task 0    on M1
	//     1.0000  start       task 1    on M1
	//     2.0000  completion  task 1    on M1
	// peak backlog: 2
}

// ExampleRunArena_Run runs one elastic simulation through the layered
// engine: the ring starts on 6 of 12 slots, drains two machines at t = 100
// and adds four (each warming up for one time unit) at t = 200. Only the
// Elastic field of the SimConfig is set, so every other layer stays off.
func ExampleRunArena_Run() {
	inst, err := flowsched.GenerateWorkload(flowsched.WorkloadConfig{
		M: 12, N: 2000, Rate: flowsched.RateForLoad(0.4, 12),
		Strategy: flowsched.OverlappingReplication(3),
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		panic(err)
	}
	_, em, err := flowsched.NewRunArena().Run(inst, flowsched.EFTRouter(flowsched.TieMin),
		flowsched.SimConfig{Elastic: &flowsched.ElasticConfig{
			Initial: 6, Min: 3, Max: 12, WarmUp: 1,
			Script: []flowsched.ScaleEvent{{At: 100, Delta: -2}, {At: 200, Delta: 4}},
		}})
	if err != nil {
		panic(err)
	}
	// em.Membership is the replayable log the auditor re-checks;
	// em.MachineHours is ∫ members dt.
	fmt.Printf("scale-downs %d, scale-ups %d, handoffs %d, log entries %d\n",
		em.ScaleDowns, em.ScaleUps, em.Handoffs, len(em.Membership.Changes))
	fmt.Printf("goodput %.0f%%, machine-hours %.0f over a horizon of %.0f\n",
		em.Goodput()*100, em.MachineHours, em.Horizon)
	// Output:
	// scale-downs 2, scale-ups 4, handoffs 1, log entries 6
	// goodput 100%, machine-hours 2711 over a horizon of 414
}
