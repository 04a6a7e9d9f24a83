package flowsched_test

import (
	"math/rand"
	"testing"

	"flowsched"
)

// resilienceCounter is a custom sink counting the facade's resilience
// event stream.
type resilienceCounter struct {
	opens, probes, closes, budgetDrops int
}

func (r *resilienceCounter) Observe(e flowsched.ProbeEvent) {
	switch e.Kind.String() {
	case "breaker-open":
		r.opens++
	case "breaker-probe":
		r.probes++
	case "breaker-close":
		r.closes++
	case "retry-budget-drop":
		r.budgetDrops++
	}
}

// TestFacadeResilient exercises the resilience facade end to end: a nil
// config leaves no resilience state, and a flapping outage under
// a retry budget plus breakers trips the breaker, drops over-budget retries
// and reports the ledger — with the event stream visible to a custom sink.
func TestFacadeResilient(t *testing.T) {
	inst, err := flowsched.GenerateWorkload(flowsched.WorkloadConfig{
		M: 4, N: 300, Rate: flowsched.RateForLoad(0.6, 4),
		Strategy: flowsched.OverlappingReplication(3),
	}, rand.New(rand.NewSource(33)))
	if err != nil {
		t.Fatal(err)
	}
	plan := flowsched.EmptyFaultPlan(4)
	for i := 0; i < 8; i++ {
		from := flowsched.Time(10 * i)
		plan.Down(0, from, from+6)
	}
	policy := flowsched.RetryPolicy{Backoff: 1, BackoffFactor: 2}

	// A nil resilience config leaves no resilience state.
	_, mR, err := flowsched.NewRunArena().Run(inst, flowsched.RoundRobinRouter(), flowsched.SimConfig{Plan: plan, Retry: policy})
	if err != nil {
		t.Fatal(err)
	}
	if mR.BreakerOpens != 0 || mR.BreakerSpans != nil || mR.BudgetDropped != nil {
		t.Fatal("nil resilience config produced resilience state")
	}

	// The protected run: jittered backoff, a tight retry budget and
	// per-server breakers against the flapping server.
	rcfg := &flowsched.ResilienceConfig{
		Jitter:      flowsched.JitterFull,
		Seed:        7,
		RetryBudget: 0.05,
		BudgetBurst: 2,
		Breaker: &flowsched.BreakerConfig{
			Window: 2, FailureThreshold: 0.5, Cooldown: 8, HalfOpenProbes: 1,
		},
	}
	probe := &resilienceCounter{}
	_, em, err := flowsched.NewRunArena().Run(inst, flowsched.RoundRobinRouter(), flowsched.SimConfig{Plan: plan, Retry: policy, Resilience: rcfg, Probe: flowsched.MultiProbe(probe)})
	if err != nil {
		t.Fatal(err)
	}
	if em.BreakerOpens == 0 {
		t.Fatal("flapping server never tripped the breaker")
	}
	if em.RetriesIssued+em.RetriesDropped != em.RetriesRequested {
		t.Fatalf("retry ledger broken: %d issued + %d dropped ≠ %d requested",
			em.RetriesIssued, em.RetriesDropped, em.RetriesRequested)
	}
	if len(em.BreakerSpans) != em.BreakerOpens {
		t.Fatalf("%d spans for %d opens", len(em.BreakerSpans), em.BreakerOpens)
	}
	if probe.opens != em.BreakerOpens || probe.probes != em.BreakerProbes ||
		probe.closes != em.BreakerCloses || probe.budgetDrops != em.RetriesDropped {
		t.Fatalf("observer saw %d/%d/%d/%d, metrics report %d/%d/%d/%d",
			probe.opens, probe.probes, probe.closes, probe.budgetDrops,
			em.BreakerOpens, em.BreakerProbes, em.BreakerCloses, em.RetriesDropped)
	}

	// A bad config is rejected up front.
	bad := &flowsched.ResilienceConfig{Jitter: "sometimes"}
	if _, _, err := flowsched.NewRunArena().Run(inst, flowsched.RoundRobinRouter(), flowsched.SimConfig{Retry: policy, Resilience: bad}); err == nil {
		t.Fatal("unknown jitter mode accepted")
	}
}
