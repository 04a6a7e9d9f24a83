package sim

import (
	"math/rand"
	"testing"

	"flowsched/internal/elastic"
	"flowsched/internal/faults"
	"flowsched/internal/hedge"
	"flowsched/internal/obs"
	"flowsched/internal/overload"
	"flowsched/internal/resilience"
)

// TestNilLayersLeaveNoTrace is the disabled-layer property of Config: for
// every subset of the overload, elastic, hedge and resilience layers armed
// on top of random instances, crash plans, retry policies and every bundled
// router, each layer left nil keeps its per-task vectors nil and its
// counters zero — a nil layer is invisible in the metrics.
func TestNilLayersLeaveNoTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		m := 2 + rng.Intn(8)
		n := 1 + rng.Intn(150)
		inst := randomInstance(m, n, rng)
		var plan *faults.Plan
		if trial%2 == 1 {
			horizon := inst.Tasks[n-1].Release + 10
			plan = faults.Generate(m, horizon, 20, 5, rand.New(rand.NewSource(int64(trial))))
		}
		pol := RetryPolicy{MaxAttempts: 1 + trial%4, Timeout: float64(trial % 3 * 10)}
		mid := inst.Tasks[n/2].Release
		for mask := 0; mask < 16; mask++ {
			// Configs carry per-run state: build fresh ones for every run.
			layers := func() Config {
				c := Config{Plan: plan, Retry: pol}
				if mask&1 != 0 {
					c.Overload = &overload.Config{Admission: overload.QueueBound{MaxQueue: 4}}
				}
				if mask&2 != 0 {
					c.Elastic = &elastic.Config{Initial: 1 + m/2, Script: []elastic.Event{{At: mid, Delta: 1}}}
				}
				if mask&4 != 0 {
					c.Hedge = &hedge.Config{Delay: 1.5, MaxHedges: 5, CancelRunning: trial%8 == 3}
				}
				if mask&8 != 0 {
					c.Resilience = &resilience.Config{Jitter: resilience.JitterFull, Seed: 5, RetryBudget: 0.2}
					if trial%2 == 1 {
						c.Resilience.Breaker = &resilience.BreakerConfig{Window: 8, FailureThreshold: 0.5, Cooldown: 3}
					}
				}
				return c
			}
			for _, kind := range allRouterKinds {
				r, _ := routerPair(kind, rng.Int63())
				cfg := layers()
				_, em, err := NewArena().Run(inst, r, cfg)
				if err != nil {
					t.Fatalf("trial %d layers %04b %s: %v", trial, mask, kind, err)
				}
				if d := nilLayerTrace(cfg, em); d != "" {
					t.Fatalf("trial %d layers %04b %s: %s", trial, mask, kind, d)
				}
				if cfg.Overload == nil && em.CompletedCount() != n-em.DroppedCount() {
					t.Fatalf("trial %d layers %04b %s: %d completed + %d dropped ≠ %d tasks",
						trial, mask, kind, em.CompletedCount(), em.DroppedCount(), n)
				}
			}
		}
	}
}

// nilLayerTrace names the first metric that a nil layer of cfg left behind
// ("" when every nil layer left nil vectors and zero counters).
func nilLayerTrace(cfg Config, em *ElasticMetrics) string {
	if cfg.Overload == nil {
		if em.Rejected != nil || em.Shed != nil || em.Reason != nil {
			return "nil overload config allocated disposition slices"
		}
		if em.RejectedCount() != 0 || em.ShedCount() != 0 || em.Ejections != 0 || em.Brownouts != 0 {
			return "nil overload config reported overload activity"
		}
	}
	if cfg.Elastic == nil {
		// Breakers record dispatch instants too, for the breaker audit.
		breakers := cfg.Resilience != nil && cfg.Resilience.Breaker != nil
		if em.Membership != nil || (!breakers && em.Dispatched != nil) {
			return "nil elastic config allocated membership state"
		}
		if em.ScaleUps != 0 || em.ScaleDowns != 0 || em.Handoffs != 0 ||
			em.WarmUpTime != 0 || em.MachineHours != 0 {
			return "nil elastic config reported membership activity"
		}
	}
	if cfg.Hedge == nil {
		if em.Hedged != nil || em.HedgeCopyServer != nil || em.HedgeCopyAt != nil || em.HedgeWonByCopy != nil {
			return "nil hedge config allocated hedge state"
		}
		if em.HedgesIssued != 0 || em.HedgeWinsPrimary != 0 || em.HedgeWinsCopy != 0 ||
			em.HedgesCancelled != 0 || em.HedgesRevoked != 0 ||
			em.CancelledWork != 0 || em.DuplicateWork != 0 {
			return "nil hedge config reported hedge activity"
		}
	}
	if cfg.Resilience == nil {
		if em.BudgetDropped != nil || em.ProbeDispatch != nil || em.BreakerSpans != nil {
			return "nil resilience config allocated resilience state"
		}
		if em.RetriesRequested != 0 || em.RetriesIssued != 0 || em.RetriesDropped != 0 ||
			em.BreakerOpens != 0 || em.BreakerCloses != 0 || em.BreakerProbes != 0 {
			return "nil resilience config reported resilience activity"
		}
	}
	return ""
}

// TestRunResilientForwards: the deprecated positional entry point is Run —
// the same schedule, metrics and probe events as Run with every layer armed
// (the parity matrix's "all" link), under every bundled router.
func TestRunResilientForwards(t *testing.T) {
	var all parityLink
	for _, l := range parityLinks() {
		if l.name == "all" {
			all = l
		}
	}
	inst := overloadedInstance(8, 600, 1.1, rand.New(rand.NewSource(22)))
	horizon := inst.Tasks[inst.N()-1].Release
	rec := obs.NewFlightRecorder(1 << 16)
	for i, kind := range allRouterKinds {
		ra, rb := routerPair(kind, int64(100+i))
		want := parityDigest(t, NewArena(), rec, inst, all, ra)
		c := all.build(inst.M, horizon)
		rec.Reset()
		s, em, err := NewArena().RunResilient(inst, rb, c.Plan, c.Retry, c.Overload, c.Elastic, c.Hedge, c.Resilience, obs.Multi(rec))
		if got := digestRun(t, rec, s, em, err); got != want {
			t.Errorf("%s: RunResilient digest %s, Run %s", kind, got, want)
		}
	}
}
