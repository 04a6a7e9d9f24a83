package flowsched_test

import (
	"math/rand"
	"testing"

	"flowsched"
)

// hedgeCounter is a custom sink counting the facade's hedge event stream.
type hedgeCounter struct {
	hedges, wins, copyWins, cancels int
}

func (h *hedgeCounter) Observe(e flowsched.ProbeEvent) {
	switch e.Kind.String() {
	case "hedge":
		h.hedges++
	case "hedge-win":
		h.wins++
		if e.Flag {
			h.copyWins++
		}
	case "hedge-cancel":
		h.cancels++
	}
}

// TestFacadeHedged exercises the hedged-execution facade end to end: a nil
// config leaves no hedge state, and a delay-triggered hedge
// under a gray fault issues copies, wins by copy, and reports the
// duplicate-work cost — with the event stream visible to a custom sink.
func TestFacadeHedged(t *testing.T) {
	inst, err := flowsched.GenerateWorkload(flowsched.WorkloadConfig{
		M: 4, N: 200, Rate: flowsched.RateForLoad(0.5, 4),
		Strategy: flowsched.OverlappingReplication(3),
	}, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	router := flowsched.RoundRobinRouter()

	// A nil hedge config leaves no hedge state.
	_, mH, err := flowsched.NewRunArena().Run(inst, router, flowsched.SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if mH.HedgesIssued != 0 || mH.Hedged != nil {
		t.Fatal("nil hedge config produced hedge state")
	}

	// One server turns gray; a delay-triggered hedge with cancel-mid-service
	// routes around it.
	plan := flowsched.EmptyFaultPlan(4).Slow(0, 0, 1e6, 25)
	hcfg := &flowsched.HedgeConfig{Delay: 2, CancelRunning: true}
	probe := &hedgeCounter{}
	_, em, err := flowsched.NewRunArena().Run(inst, flowsched.RoundRobinRouter(), flowsched.SimConfig{Plan: plan, Hedge: hcfg, Probe: flowsched.MultiProbe(probe)})
	if err != nil {
		t.Fatal(err)
	}
	if em.HedgesIssued == 0 || em.HedgeWinsCopy == 0 {
		t.Fatalf("gray server produced no copy wins: issued=%d copyWins=%d",
			em.HedgesIssued, em.HedgeWinsCopy)
	}
	if em.HedgesIssued != em.HedgeWinsCopy+em.HedgesCancelled+em.HedgesRevoked {
		t.Fatalf("hedge resolution broken: %d ≠ %d + %d + %d",
			em.HedgesIssued, em.HedgeWinsCopy, em.HedgesCancelled, em.HedgesRevoked)
	}
	if probe.hedges != em.HedgesIssued || probe.copyWins != em.HedgeWinsCopy {
		t.Fatalf("observer saw %d/%d, metrics report %d/%d",
			probe.hedges, probe.copyWins, em.HedgesIssued, em.HedgeWinsCopy)
	}
	if r := em.DuplicateRatio(); r < 0 || r >= 1 {
		t.Fatalf("DuplicateRatio = %v", r)
	}

	// A triggerless config is rejected up front.
	if _, _, err := flowsched.NewRunArena().Run(inst, flowsched.RoundRobinRouter(), flowsched.SimConfig{Hedge: &flowsched.HedgeConfig{}}); err == nil {
		t.Fatal("triggerless hedge config accepted")
	}
}
