package audit

import (
	"math"
	"math/rand"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/faults"
	"flowsched/internal/hedge"
	"flowsched/internal/sim"
)

// hedgeInfo bundles a hedged run's metrics into the auditor's HedgeInfo.
func hedgeInfo(em *sim.ElasticMetrics) *HedgeInfo {
	return &HedgeInfo{
		Hedged: em.Hedged, CopyServer: em.HedgeCopyServer, CopyAt: em.HedgeCopyAt,
		WonByCopy: em.HedgeWonByCopy, Busy: em.Busy, DuplicateWork: em.DuplicateWork,
	}
}

// TestAuditCleanHedgedRuns: schedules straight out of the hedged simulator
// must audit clean — healthy (where the busy-time identity is live), under
// gray slowdowns, and under crash plans with retries — across delay, tied
// and cancel-mid-service configs.
func TestAuditCleanHedgedRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		m := 2 + rng.Intn(5)
		n := 1 + rng.Intn(60)
		inst := randomInstance(m, n, rng)

		hcfg := &hedge.Config{Delay: 0.2 + rng.Float64()}
		switch trial % 3 {
		case 1:
			hcfg = &hedge.Config{Tied: true}
		case 2:
			hcfg.CancelRunning = true
		}

		var plan *faults.Plan
		var pol sim.RetryPolicy
		if trial%2 == 1 {
			plan = faults.Generate(m, 10, 6, 2, rng)
			pol = sim.RetryPolicy{MaxAttempts: 4, Backoff: 0.05}
		}

		s, em, err := sim.NewArena().Run(inst, sim.EFTRouter{}, sim.Config{Plan: plan, Retry: pol, Hedge: hcfg})
		if err != nil {
			t.Fatal(err)
		}
		r := Audit(inst, s, Options{
			Plan:           plan,
			Completions:    completionsOf(inst, em),
			Dropped:        em.Dropped,
			Hedge:          hedgeInfo(em),
			SkipLowerBound: true, SkipFIFOEquiv: true,
		})
		if !r.Ok() {
			t.Fatalf("trial %d (m=%d n=%d hedges=%d): hedged audit failed:\n%s",
				trial, m, n, em.HedgesIssued, r)
		}
	}
}

// completionsOf reconstructs observed completion instants from the metrics'
// flows (release + flow; NaN for excluded tasks is skipped by the auditor
// through Dropped).
func completionsOf(inst *core.Instance, em *sim.ElasticMetrics) core.Times {
	out := make(core.Times, len(inst.Tasks))
	for i := range inst.Tasks {
		out[i] = inst.Tasks[i].Release + em.Flows[i]
	}
	return out
}

// TestAuditHedgeViolations: corrupted hedge records are flagged under
// InvHedge — ineligible copy server, phantom copy win, winner/schedule
// mismatch, and a broken busy-time identity.
func TestAuditHedgeViolations(t *testing.T) {
	inst := core.NewInstance(3, []core.Task{
		{Release: 0, Proc: 2, Set: core.NewProcSet(0, 1)},
		{Release: 0, Proc: 1},
	})
	hcfg := &hedge.Config{Delay: 0.5, CancelRunning: true}
	plan := faults.Empty(3).Slow(0, 0, 1000, 50)
	s, em, err := sim.NewArena().Run(inst, sim.EFTRouter{}, sim.Config{Plan: plan, Hedge: hcfg})
	if err != nil {
		t.Fatal(err)
	}
	if em.HedgesIssued == 0 || !em.HedgeWonByCopy[0] {
		t.Fatalf("scenario did not hedge task 0 to a win: %+v", em.Hedged)
	}
	base := Options{Plan: plan, Dropped: em.Dropped, SkipLowerBound: true, SkipFIFOEquiv: true}

	opts := base
	opts.Hedge = hedgeInfo(em)
	if r := Audit(inst, s, opts); !r.Ok() {
		t.Fatalf("clean hedged run flagged:\n%s", r)
	}

	// Copy server outside the processing set.
	bad := *hedgeInfo(em)
	bad.CopyServer = append([]int(nil), em.HedgeCopyServer...)
	bad.CopyServer[0] = 2 // task 0's set is {0, 1}
	opts.Hedge = &bad
	if r := Audit(inst, s, opts); !violated(r, InvHedge) {
		t.Fatalf("ineligible copy server not flagged:\n%s", r)
	}

	// Copy win claimed for a task that was never hedged.
	bad = *hedgeInfo(em)
	bad.WonByCopy = append([]bool(nil), em.HedgeWonByCopy...)
	bad.WonByCopy[1] = true
	opts.Hedge = &bad
	if r := Audit(inst, s, opts); !violated(r, InvHedge) {
		t.Fatalf("phantom copy win not flagged:\n%s", r)
	}

	// Winner disagrees with the schedule's machine.
	bad = *hedgeInfo(em)
	bad.CopyServer = append([]int(nil), em.HedgeCopyServer...)
	bad.CopyServer[0] = 0 // schedule runs task 0 on the copy's real server
	opts.Hedge = &bad
	if r := Audit(inst, s, opts); !violated(r, InvHedge) {
		t.Fatalf("winner/schedule mismatch not flagged:\n%s", r)
	}

	// Shape mismatches abort before any per-task reasoning.
	bad = *hedgeInfo(em)
	bad.Hedged = bad.Hedged[:1]
	opts.Hedge = &bad
	if r := Audit(inst, s, opts); !violated(r, InvShape) {
		t.Fatalf("hedge record shape mismatch not flagged:\n%s", r)
	}
}

// TestAuditHedgeBusyIdentity: on a healthy plan the auditor enforces
// Σ Busy = Σ completed work + DuplicateWork, catching both leaked cancelled
// copies and unreported duplicate work.
func TestAuditHedgeBusyIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	inst := randomInstance(3, 40, rng)
	s, em, err := sim.NewArena().Run(inst, &sim.RoundRobinRouter{}, sim.Config{Hedge: &hedge.Config{Delay: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Dropped: em.Dropped, SkipLowerBound: true, SkipFIFOEquiv: true, Hedge: hedgeInfo(em)}
	if r := Audit(inst, s, opts); !r.Ok() {
		t.Fatalf("healthy hedged run flagged:\n%s", r)
	}

	bad := *hedgeInfo(em)
	bad.DuplicateWork += 1 // unaccounted burn
	opts.Hedge = &bad
	if r := Audit(inst, s, opts); !violated(r, InvHedge) {
		t.Fatalf("broken busy identity not flagged:\n%s", r)
	}

	bad = *hedgeInfo(em)
	bad.Busy = append(core.Times(nil), em.Busy...)
	bad.Busy[0] += 2 // a cancelled copy's work left in the busy ledger
	opts.Hedge = &bad
	if r := Audit(inst, s, opts); !violated(r, InvHedge) {
		t.Fatalf("leaked busy time not flagged:\n%s", r)
	}

	// NaN copy instants for never-hedged tasks must not trip anything.
	for i, h := range em.Hedged {
		if !h && !math.IsNaN(float64(em.HedgeCopyAt[i])) {
			t.Fatalf("task %d never hedged but CopyAt=%v", i, em.HedgeCopyAt[i])
		}
	}
}
