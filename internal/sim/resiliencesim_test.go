package sim

import (
	"math"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/elastic"
	"flowsched/internal/faults"
	"flowsched/internal/hedge"
	"flowsched/internal/overload"
	"flowsched/internal/resilience"
)

// TestRetryPolicyValidate covers the policy surface: documented zero values
// pass, and the retry-storm foot-guns — most importantly a BackoffFactor in
// (0, 1), which would shrink the delay per attempt — are rejected.
func TestRetryPolicyValidate(t *testing.T) {
	valid := []RetryPolicy{
		{},
		{MaxAttempts: 3, Backoff: 1, BackoffFactor: 2, Timeout: 50},
		{Backoff: 0.5},                   // constant backoff, factor 0
		{Backoff: 0.5, BackoffFactor: 1}, // constant backoff, factor 1
	}
	for _, p := range valid {
		if err := p.Validate(); err != nil {
			t.Errorf("policy %+v rejected: %v", p, err)
		}
	}
	invalid := []RetryPolicy{
		{MaxAttempts: -1},
		{Backoff: -1},
		{Backoff: core.Time(math.NaN())},
		{Backoff: core.Time(math.Inf(1))},
		{BackoffFactor: -2},
		{BackoffFactor: math.NaN()},
		{BackoffFactor: math.Inf(1)},
		{BackoffFactor: 0.5}, // the headline case: shrinking "backoff"
		{Timeout: -1},
		{Timeout: core.Time(math.NaN())},
	}
	for _, p := range invalid {
		if err := p.Validate(); err == nil {
			t.Errorf("policy %+v accepted, want rejection", p)
		}
	}
}

// TestBreakerOpenSoleMemberParks: a task whose only eligible server sits
// behind an open breaker parks (it does not livelock retrying into the open
// breaker) and wakes when the cooldown expires — the half-open probe then
// closes the breaker and the task completes.
func TestBreakerOpenSoleMemberParks(t *testing.T) {
	inst := core.NewInstance(2, []core.Task{
		{Release: 0, Proc: 2, Set: core.ProcSet{0}},
	})
	plan := faults.Empty(2).Down(0, 1, 2)
	rcfg := &resilience.Config{
		Breaker: &resilience.BreakerConfig{
			Window: 1, FailureThreshold: 1, Cooldown: 10, HalfOpenProbes: 1,
		},
	}
	s, em, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: plan, Resilience: rcfg})
	if err != nil {
		t.Fatal(err)
	}
	// The attempt on [0, 2) is crashed at t=1 and opens the breaker (window
	// 1, threshold 1). The immediate retry finds the server down, parks; the
	// t=2 restore wakes it into the open breaker, which parks it again; the
	// cooldown expires at t=11, the wake dispatches the half-open probe over
	// [11, 13) and its success closes the breaker.
	if s.Machine[0] != 0 || s.Start[0] != 11 {
		t.Fatalf("task ran on M%d at %v, want M0 at 11", s.Machine[0], s.Start[0])
	}
	if !em.Parked[0] || em.Dropped[0] {
		t.Fatalf("dispositions parked=%v dropped=%v, want parked, not dropped", em.Parked[0], em.Dropped[0])
	}
	if em.Attempts[0] != 2 {
		t.Fatalf("attempts %d, want 2", em.Attempts[0])
	}
	if em.BreakerOpens != 1 || em.BreakerCloses != 1 || em.BreakerProbes != 1 {
		t.Fatalf("breaker counters opens=%d closes=%d probes=%d, want 1/1/1",
			em.BreakerOpens, em.BreakerCloses, em.BreakerProbes)
	}
	if !em.ProbeDispatch[0] {
		t.Fatal("completing dispatch not marked as a probe")
	}
	if len(em.BreakerSpans) != 1 {
		t.Fatalf("%d breaker spans, want 1", len(em.BreakerSpans))
	}
	sp := em.BreakerSpans[0]
	if sp.Server != 0 || sp.OpenedAt != 1 || sp.HalfOpenAt != 11 || sp.EndedAt != 13 || !sp.Closed {
		t.Fatalf("span %+v, want M0 open 1, half-open 11, closed at 13", sp)
	}
	if em.Makespan != 13 {
		t.Fatalf("makespan %v, want 13", em.Makespan)
	}
}

// TestCandidateRuleEjectionLast pins the one candidate rule: the mandatory
// filters (live, breaker) apply before the ejector's advisory preference,
// so ejection alone never parks a task a breaker-admitted server can take.
// Server 0 is gray (factor 10 on [0, 10)): A's completion at t=10 ejects
// it. D and E are crashed at t=12 on servers 1 and 2, which opens both
// breakers until t=112, and are dropped (one attempt). The full-set task F
// arrives at t=20: servers 1 and 2 are live but breaker-open, server 0 is
// live, idle, ejected and closed. Preferring non-ejected servers first
// would leave only the blocked ones and park F until t=112.
func TestCandidateRuleEjectionLast(t *testing.T) {
	inst := core.NewInstance(3, []core.Task{
		{Release: 0, Proc: 1, Set: core.ProcSet{0}},  // A
		{Release: 0, Proc: 1, Set: core.ProcSet{1}},  // B
		{Release: 0, Proc: 1, Set: core.ProcSet{2}},  // C
		{Release: 11, Proc: 5, Set: core.ProcSet{1}}, // D
		{Release: 11, Proc: 5, Set: core.ProcSet{2}}, // E
		{Release: 20, Proc: 1},                       // F
	})
	plan := faults.Empty(3).Slow(0, 0, 10, 10).Down(1, 12, 13).Down(2, 12, 13)
	cfg := Config{
		Plan:     plan,
		Retry:    RetryPolicy{MaxAttempts: 1},
		Overload: &overload.Config{Ejector: &overload.Ejector{K: 3, Cooldown: 1000, MinSamples: 1}},
		Resilience: &resilience.Config{Breaker: &resilience.BreakerConfig{
			Window: 1, FailureThreshold: 0.5, Cooldown: 100, HalfOpenProbes: 1,
		}},
	}
	s, em, err := NewArena().Run(inst, EFTRouter{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if em.Ejections != 1 || em.BreakerOpens != 2 {
		t.Fatalf("ejections %d, breaker opens %d; want 1 and 2", em.Ejections, em.BreakerOpens)
	}
	const f = 5
	if em.Parked[f] {
		t.Fatal("F parked although server 0 is live and its breaker closed")
	}
	if s.Machine[f] != 0 || s.Start[f] != 20 {
		t.Fatalf("F ran on M%d at %v, want M0 at 20", s.Machine[f], s.Start[f])
	}
}

// TestRetryBudgetExhaustionZoneOutage: a correlated outage of every server
// floods the requeue path; the retry budget admits only what its bucket
// holds and drops the rest with the BudgetDropped disposition — never
// parking them forever — and the conservation equation holds exactly.
func TestRetryBudgetExhaustionZoneOutage(t *testing.T) {
	inst := core.NewInstance(2, []core.Task{
		{Release: 0, Proc: 10},
		{Release: 0, Proc: 10},
		{Release: 0, Proc: 10},
		{Release: 0, Proc: 10},
	})
	plan := faults.Empty(2).Down(0, 1, 50).Down(1, 1, 50)
	rcfg := &resilience.Config{RetryBudget: 0.25, BudgetBurst: 2}
	_, em, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: plan, Resilience: rcfg})
	if err != nil {
		t.Fatal(err)
	}
	// Four first attempts refill 4×0.25 tokens into a bucket already capped
	// at its burst of 2. The t=1 outage aborts all four; the first two
	// retries spend the bucket, the last two are over budget and drop.
	if em.RetriesRequested != 4 || em.RetriesIssued != 2 || em.RetriesDropped != 2 {
		t.Fatalf("retry ledger requested=%d issued=%d dropped=%d, want 4/2/2",
			em.RetriesRequested, em.RetriesIssued, em.RetriesDropped)
	}
	if em.RetriesIssued+em.RetriesDropped != em.RetriesRequested {
		t.Fatal("conservation violated")
	}
	budgetDropped, dropped := 0, 0
	for i := range inst.Tasks {
		if em.BudgetDropped[i] {
			budgetDropped++
			if !em.Dropped[i] {
				t.Fatalf("task %d budget-dropped but not dropped", i)
			}
		}
		if em.Dropped[i] {
			dropped++
		}
	}
	if budgetDropped != 2 || dropped != 2 {
		t.Fatalf("budgetDropped=%d dropped=%d, want 2/2", budgetDropped, dropped)
	}
	// The two issued retries park through the outage and complete after the
	// t=50 recovery.
	completed := 0
	for i := range inst.Tasks {
		if !em.Dropped[i] {
			completed++
			if em.Flows[i] <= 50 {
				t.Fatalf("task %d flow %v, want completion after the recovery", i, em.Flows[i])
			}
		}
	}
	if completed != 2 {
		t.Fatalf("%d tasks completed, want 2", completed)
	}
}

// TestBreakerProbeRacingHedgeCopy: a half-open probe crawls on a gray-slow
// server, its hedge copy wins on a healthy one, and the cancelled probe
// refunds its slot without recording an outcome — the breaker keeps its
// half-open episode open rather than booking a phantom close.
func TestBreakerProbeRacingHedgeCopy(t *testing.T) {
	inst := core.NewInstance(2, []core.Task{
		{Release: 0, Proc: 10, Set: core.ProcSet{0, 1}},
		{Release: 0, Proc: 2, Set: core.ProcSet{1}},
	})
	plan := faults.Empty(2).Down(0, 1, 1.5).Slow(0, 4, 100, 5)
	hcfg := &hedge.Config{Delay: 2, CancelRunning: true}
	rcfg := &resilience.Config{
		Breaker: &resilience.BreakerConfig{
			Window: 1, FailureThreshold: 1, Cooldown: 2, HalfOpenProbes: 1,
		},
	}
	pol := RetryPolicy{Backoff: 3}
	s, em, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: plan, Retry: pol, Hedge: hcfg, Resilience: rcfg})
	if err != nil {
		t.Fatal(err)
	}
	// Task 0 runs on M0 from 0, crashes at 1, opens the breaker. The hedge
	// was armed off the first dispatch, so the copy fires at t=2 and runs on
	// M1 over [2, 12). Meanwhile the cooldown expires at 3 and the backoff-3
	// retry at t=4 dispatches as the half-open probe — but the gray window
	// slows it 5× (done at 54). The copy wins at 12; cancelling the primary
	// refunds the probe slot with no outcome.
	if s.Machine[0] != 1 {
		t.Fatalf("task 0 on M%d, want the copy's M1", s.Machine[0])
	}
	if em.Flows[0] != 12 {
		t.Fatalf("task 0 flow %v, want 12", em.Flows[0])
	}
	if em.HedgeWinsCopy != 1 {
		t.Fatalf("copy wins %d, want 1", em.HedgeWinsCopy)
	}
	if em.BreakerOpens != 1 || em.BreakerCloses != 0 || em.BreakerProbes != 1 {
		t.Fatalf("breaker counters opens=%d closes=%d probes=%d, want 1/0/1",
			em.BreakerOpens, em.BreakerCloses, em.BreakerProbes)
	}
	if em.ProbeDispatch[0] {
		t.Fatal("cancelled probe kept its probe flag: the refund did not clear it")
	}
	if len(em.BreakerSpans) != 1 {
		t.Fatalf("%d breaker spans, want 1", len(em.BreakerSpans))
	}
	sp := em.BreakerSpans[0]
	if sp.Closed || !math.IsNaN(float64(sp.EndedAt)) {
		t.Fatalf("span %+v: an outcome-less cancelled probe must not settle the episode", sp)
	}
	if em.Dropped[0] || em.Dropped[1] {
		t.Fatal("no task should be dropped")
	}
}

// TestBreakerProbeRacingScaleDownDrain: an elastic scale-down drains a
// server holding a queued half-open probe. The probe hands off through the
// normal dispatch path, refunding its slot; no task is lost and no breaker
// accounting leaks.
func TestBreakerProbeRacingScaleDownDrain(t *testing.T) {
	inst := core.NewInstance(2, []core.Task{
		{Release: 0, Proc: 20, Set: core.ProcSet{0}},
		{Release: 0, Proc: 1, Set: core.ProcSet{0, 1}},
		{Release: 0, Proc: 2, Set: core.ProcSet{0, 1}},
		{Release: 0.6, Proc: 10, Set: core.ProcSet{1}},
	})
	plan := faults.Empty(2).Down(1, 0.5, 0.6)
	ecfg := &elastic.Config{Initial: 2, Script: []elastic.Event{{At: 5, Delta: -1}}}
	rcfg := &resilience.Config{
		Breaker: &resilience.BreakerConfig{
			Window: 1, FailureThreshold: 1, Cooldown: 1, HalfOpenProbes: 2,
		},
	}
	pol := RetryPolicy{Backoff: 2}
	s, em, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: plan, Retry: pol, Elastic: ecfg, Resilience: rcfg})
	if err != nil {
		t.Fatal(err)
	}
	// M1 crashes on [0.5, 0.6), opening its breaker; the half-open window at
	// 1.5 admits the parked task 3 as the first probe, and one of the
	// backoff-2 retries at t=2.5 queues as the second. The t=5 scale-down
	// drains M1: the running probe finishes in place (closing the breaker at
	// 11.5), the queued one hands off to M0 with its slot refunded.
	for i := range inst.Tasks {
		if s.Machine[i] < 0 || em.Dropped[i] {
			t.Fatalf("task %d lost to the drain: machine=%d dropped=%v", i, s.Machine[i], em.Dropped[i])
		}
	}
	if em.ScaleDowns != 1 {
		t.Fatalf("scale-downs %d, want 1", em.ScaleDowns)
	}
	if em.Handoffs == 0 {
		t.Fatal("the drained queue produced no handoffs")
	}
	if em.BreakerOpens != 1 || em.BreakerProbes != 2 {
		t.Fatalf("breaker counters opens=%d probes=%d, want 1 open and 2 probes", em.BreakerOpens, em.BreakerProbes)
	}
	if em.BreakerCloses != 1 {
		t.Fatalf("breaker closes %d, want 1 (the in-place probe's success)", em.BreakerCloses)
	}
	if em.RetriesRequested != em.RetriesIssued || em.RetriesDropped != 0 {
		t.Fatalf("unbudgeted run mutated the budget ledger: %d/%d/%d",
			em.RetriesRequested, em.RetriesIssued, em.RetriesDropped)
	}
}
