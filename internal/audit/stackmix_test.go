package audit

import (
	"math/rand"
	"runtime"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/elastic"
	"flowsched/internal/faults"
	"flowsched/internal/hedge"
	"flowsched/internal/overload"
	"flowsched/internal/popularity"
	"flowsched/internal/replicate"
	"flowsched/internal/resilience"
	"flowsched/internal/sim"
	"flowsched/internal/workload"
)

// stackAudit runs the perfbench stack workload's shape (m = 15, Shuffled
// Zipf(1) popularity, overlapping k = 3 sets, load 0.8) through Arena.Run
// with every engine link armed as that workload arms them: a 6x gray
// server, two flapping servers with jittered retries under a budget,
// queue-bound admission with stretch shedding and ejection, a drain/rejoin
// script, quantile hedging with CancelRunning, and circuit breakers. It
// returns the schedule with the options that workload audits it under.
func stackAudit(t *testing.T, n int, seed int64) (*core.Instance, *core.Schedule, Options) {
	t.Helper()
	const m = 15
	weights := popularity.Weights(popularity.Shuffled, m, 1, rand.New(rand.NewSource(seed^0x5eed)))
	inst, err := workload.Generate(workload.Config{
		M: m, N: n, Rate: workload.RateForLoad(0.8, m),
		Weights: weights, Strategy: replicate.Overlapping{K: 3},
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	horizon := inst.Tasks[n-1].Release
	plan := faults.Empty(m)
	plan.Slow(4, 0, horizon, 6)
	for f := 0; f < 20; f++ {
		from := 0.2*horizon + core.Time(f)*15
		plan.Down(9, from, from+9)
		plan.Down(10, from, from+9)
	}
	s, em, err := sim.NewArena().Run(inst, sim.EFTRouter{}, sim.Config{
		Plan:  plan,
		Retry: sim.RetryPolicy{MaxAttempts: 6, Backoff: 1, BackoffFactor: 2},
		Overload: &overload.Config{
			Admission: overload.QueueBound{MaxQueue: 20},
			Shedder:   &overload.Shedder{Policy: overload.DropLargestStretch, Watermark: 12, Seed: seed},
			Ejector:   &overload.Ejector{K: 3, Cooldown: 50},
		},
		Elastic: &elastic.Config{Min: 3, WarmUp: 5, Script: []elastic.Event{
			{At: 0.4 * horizon, Delta: -3}, {At: 0.6 * horizon, Delta: 3}}},
		Hedge: &hedge.Config{Quantile: 0.95, MinSamples: 20, CancelRunning: true},
		Resilience: &resilience.Config{
			Jitter: resilience.JitterFull, Seed: seed, RetryBudget: 0.1, BudgetBurst: 3,
			Breaker: &resilience.BreakerConfig{Window: 5, FailureThreshold: 0.6, Cooldown: 15,
				HalfOpenProbes: 2, SlowFactor: 3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	om := &em.OverloadMetrics
	return inst, s, Options{
		Plan: plan, Completions: completionsOf(inst, em), Dropped: om.Dropped,
		Overload:   &OverloadInfo{Rejected: om.Rejected, Shed: om.Shed},
		Membership: &MembershipInfo{Membership: em.Membership, Dispatched: em.Dispatched},
		Hedge:      hedgeInfo(em),
		Resilience: &ResilienceInfo{
			RetriesRequested: em.RetriesRequested, RetriesIssued: em.RetriesIssued,
			RetriesDropped: em.RetriesDropped, BudgetDropped: em.BudgetDropped,
			Spans: em.BreakerSpans, ProbeDispatch: em.ProbeDispatch, Dispatched: em.Dispatched,
			BreakerOpens: em.BreakerOpens, BreakerCloses: em.BreakerCloses,
		},
		SkipLowerBound: true,
	}
}

// TestAuditStackMixAllocs pins the heap bytes of the stack workload's audit
// at n = 10⁴ (seed 4242). Retries, hedge copies and handoffs put starts out
// of task order on 7 of the 15 machines there, so the overlap check falls
// back to sorting those machines' executions. The fallback collects their
// task ids in one slice of exactly their count, so the audit may allocate 8
// bytes per collected id plus 16 KiB for everything else: 50,504 bytes
// here, where a growing slice of 24-byte executions made it 263,864. The
// audit must be clean and match the sorted-scan oracle.
func TestAuditStackMixAllocs(t *testing.T) {
	inst, s, opts := stackAudit(t, 10_000, 4242)
	if r := checkSortedScan(t, "stack mix", inst, s, opts); !r.Ok() {
		t.Fatalf("stack mix audit:\n%s", r)
	}
	// The fallback depends on start order alone: replay it on the executed
	// tasks (a clean run leaves every other task unassigned).
	scan := newOverlapScan(inst.M)
	for i, j := range s.Machine {
		if j >= 0 {
			scan.next(i, j, s.Start[i], s.Start[i]+inst.Tasks[i].Proc)
		}
	}
	collected := 0
	for _, j := range s.Machine {
		if j >= 0 && scan.tail[j].sorted {
			collected++
		}
	}
	if scan.fallback < 5 {
		t.Fatalf("%d of %d machines fall back to the sorted scan; the pin needs at least 5", scan.fallback, inst.M)
	}
	got := bytesPerRun(5, func() { Audit(inst, s, opts) })
	t.Logf("%d bytes per audit; %d machines fall back, %d ids collected", got, scan.fallback, collected)
	if limit := uint64(8*collected + 16<<10); got > limit {
		t.Errorf("the stack mix audit allocates %d bytes, want at most %d (8 per collected id plus 16 KiB)", got, limit)
	}
}

// bytesPerRun returns the heap bytes one call of f allocates, averaged over
// runs calls after a warm-up call, on one P as testing.AllocsPerRun counts.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
