// custombound shows how to use the library's immediate-dispatch interface
// to build your own adversarial lower-bound experiment, in the spirit of
// Section 6: we pit EFT against a tiny adaptive adversary of our own (a
// two-phase "commit and punish" construction on disjoint pairs) and
// measure the ratio against the exact offline optimum. It also
// demonstrates the Theorem 6 per-set adapter turning the heap-indexed
// unrestricted EFT into a scheduler for disjoint sets.
//
// Run with: go run ./examples/custombound
package main

import (
	"fmt"
	"log"

	"flowsched"
)

func main() {
	const p = 100.0

	// --- A custom adaptive adversary -----------------------------------
	// Phase 1: one task of length p eligible on the pair {M1,M2}. Observe
	// where the algorithm commits. Phase 2: two more tasks on exactly that
	// machine's pair partner... here: both on the chosen machine's block,
	// so the committed machine gets a backlog while the other idles.
	alg := flowsched.NewEFT(flowsched.TieMin)
	alg.Reset(4)

	t1 := flowsched.Task{ID: 0, Release: 0, Proc: p, Set: flowsched.NewProcSet(0, 1)}
	d1 := alg.Dispatch(t1)
	fmt.Printf("adversary: T1 committed to M%d at t=%v\n", d1.Machine+1, d1.Start)

	// Punish the commitment: release two tasks eligible ONLY on the chosen
	// machine (a singleton is a degenerate disjoint set).
	chosen := d1.Machine
	t2 := flowsched.Task{ID: 1, Release: 1, Proc: p, Set: flowsched.NewProcSet(chosen)}
	t3 := flowsched.Task{ID: 2, Release: 1, Proc: p, Set: flowsched.NewProcSet(chosen)}
	d2 := alg.Dispatch(t2)
	d3 := alg.Dispatch(t3)

	// Assemble the instance and the algorithm's schedule from the observed
	// decisions.
	inst := flowsched.NewInstance(4, []flowsched.Task{t1, t2, t3})
	s := flowsched.NewSchedule(inst)
	s.Assign(0, d1.Machine, d1.Start)
	s.Assign(1, d2.Machine, d2.Start)
	s.Assign(2, d3.Machine, d3.Start)
	if err := s.Validate(); err != nil {
		log.Fatalf("algorithm schedule invalid: %v", err)
	}

	opt, err := flowsched.OptimalBruteForce(inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("EFT Fmax = %v, offline OPT = %v → ratio %.3f\n",
		s.MaxFlow(), opt.MaxFlow(), s.MaxFlow()/opt.MaxFlow())
	fmt.Printf("(OPT would have parked T1 on the other machine of its pair: ratio → 1.5 as p → ∞)\n\n")

	// --- The Theorem 6 adapter ------------------------------------------
	// The adapter runs one unrestricted EFT-Min per disjoint block and
	// inherits (3 − 2/k).
	rngInst := flowsched.NewInstance(6, []flowsched.Task{
		{Release: 0, Proc: 2, Set: flowsched.MachineInterval(0, 2)},
		{Release: 0, Proc: 1, Set: flowsched.MachineInterval(0, 2)},
		{Release: 0, Proc: 2, Set: flowsched.MachineInterval(3, 5)},
		{Release: 1, Proc: 1, Set: flowsched.MachineInterval(3, 5)},
		{Release: 1, Proc: 1, Set: flowsched.MachineInterval(0, 2)},
	})
	adapter := flowsched.NewPerSetAdapter("EFT-Min", func() flowsched.OnlineScheduler {
		return flowsched.NewEFT(flowsched.TieMin)
	})
	as, err := adapter.Run(rngInst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Theorem 6 adapter (%s) on two disjoint blocks of k=3:\n", adapter.Name())
	fmt.Print(as.Gantt(1))
	fmt.Printf("Fmax = %v; guarantee: 3 − 2/k = %.2f × OPT (Corollary 1)\n",
		as.MaxFlow(), flowsched.CompetitiveBoundDisjoint(3))
}
