package audit

import (
	"math/rand"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/faults"
	"flowsched/internal/resilience"
	"flowsched/internal/sim"
)

// resilienceInfo bundles a resilient run's metrics into the auditor's
// ResilienceInfo.
func resilienceInfo(em *sim.ElasticMetrics) *ResilienceInfo {
	return &ResilienceInfo{
		RetriesRequested: em.RetriesRequested, RetriesIssued: em.RetriesIssued,
		RetriesDropped: em.RetriesDropped, BudgetDropped: em.BudgetDropped,
		Spans: em.BreakerSpans, ProbeDispatch: em.ProbeDispatch, Dispatched: em.Dispatched,
		BreakerOpens: em.BreakerOpens, BreakerCloses: em.BreakerCloses,
	}
}

// TestAuditResilienceLedger: a resilient run whose budget refused retries
// and whose breakers opened audits clean, and the auditor alone catches a
// leaking retry-budget ledger and an open count that disagrees with the
// recorded spans.
func TestAuditResilienceLedger(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := &resilience.Config{
		Jitter: resilience.JitterFull, Seed: 3, RetryBudget: 0.1, BudgetBurst: 1,
		Breaker: &resilience.BreakerConfig{Window: 3, FailureThreshold: 0.5, Cooldown: 2},
	}
	for trial := 0; trial < 50; trial++ {
		m, n := 2+rng.Intn(4), 40+rng.Intn(80)
		inst := randomInstance(m, n, rng)
		plan := faults.Generate(m, inst.Tasks[n-1].Release, 3, 2, rng)
		s, em, err := sim.NewArena().Run(inst, sim.EFTRouter{}, sim.Config{Plan: plan, Resilience: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if em.RetriesDropped == 0 || em.BreakerOpens == 0 {
			continue
		}
		comps := make([]core.Time, n)
		for i, task := range inst.Tasks {
			comps[i] = task.Release + em.Flows[i]
		}
		opts := Options{Plan: plan, Completions: comps, Dropped: em.Dropped, SkipLowerBound: true}
		opts.Resilience = resilienceInfo(em)
		if r := Audit(inst, s, opts); !r.Ok() {
			t.Fatalf("trial %d: clean resilient run flagged:\n%s", trial, r)
		}

		leak := *resilienceInfo(em)
		leak.RetriesIssued++
		opts.Resilience = &leak
		if r := Audit(inst, s, opts); !violated(r, InvResilience) {
			t.Fatalf("trial %d: leaking retry-budget ledger not flagged:\n%s", trial, r)
		}

		opens := *resilienceInfo(em)
		opens.BreakerOpens++
		opts.Resilience = &opens
		if r := Audit(inst, s, opts); !violated(r, InvResilience) {
			t.Fatalf("trial %d: open count off the span history not flagged:\n%s", trial, r)
		}
		return
	}
	t.Fatal("no trial both refused a retry and opened a breaker")
}
