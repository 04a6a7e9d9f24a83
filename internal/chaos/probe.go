package chaos

import (
	"fmt"
	"math"

	"flowsched/internal/audit"
	"flowsched/internal/core"
	"flowsched/internal/obs"
	"flowsched/internal/sim"
)

// countProbe is the metrics cross-checker: it counts the simulator's event
// stream independently and compares its totals against the metrics the run
// reports. Any disagreement means the simulator's bookkeeping and its event
// stream have diverged — a bug neither the schedule auditor nor the metrics
// alone would catch. The totals are obs.Counters'; on top of them it keeps
// the per-task marks (final completion, rejected, shed, hedged, won by
// copy, probed, budget-dropped) and the drains' own handoff totals, so
// guarded, churn, hedged and resilient trials cross-check their
// dispositions, membership log and ledgers as well as their counts.
type countProbe struct {
	obs.Counters
	ends          []core.Time // per-task final completion; NaN = never completed
	makespan      core.Time
	doneCalls     int
	drainHandoffs int // handoff totals as reported by the drain events

	rejected, shed, hedged, wonByCopy, probed, budgetDropped []bool
}

func newCountProbe(n int) *countProbe {
	ends := make([]core.Time, n)
	for i := range ends {
		ends[i] = math.NaN()
	}
	return &countProbe{
		ends: ends, rejected: make([]bool, n), shed: make([]bool, n),
		hedged: make([]bool, n), wonByCopy: make([]bool, n),
		probed: make([]bool, n), budgetDropped: make([]bool, n),
	}
}

// Observe implements obs.Sink.
func (c *countProbe) Observe(e obs.Event) {
	c.Counters.Observe(e)
	mark := func(flags []bool) {
		if e.Task >= 0 && e.Task < len(flags) {
			flags[e.Task] = true
		}
	}
	switch e.Kind {
	case obs.Complete:
		if e.Task >= 0 && e.Task < len(c.ends) {
			c.ends[e.Task] = e.At
		}
	case obs.Done:
		c.makespan = e.At
		c.doneCalls++
	case obs.Reject:
		mark(c.rejected)
	case obs.Shed:
		mark(c.shed)
	case obs.ScaleDown:
		c.drainHandoffs += int(e.T1)
	case obs.Hedge:
		mark(c.hedged)
	case obs.HedgeWin:
		if e.Flag {
			mark(c.wonByCopy)
		}
	case obs.BreakerProbe:
		mark(c.probed)
	case obs.RetryBudgetDrop:
		mark(c.budgetDropped)
	}
}

// crossCheck compares the probe's event counts against the run's metrics
// and returns one InvProbe violation per disagreement.
func (c *countProbe) crossCheck(inst *core.Instance, om *sim.OverloadMetrics) []audit.Violation {
	var vs []audit.Violation
	bad := func(format string, args ...any) {
		vs = append(vs, audit.Violation{Invariant: InvProbe, Task: -1, Machine: -1,
			Detail: fmt.Sprintf(format, args...)})
	}
	n := inst.N()
	if c.Arrivals != int64(n) {
		bad("probe saw %d arrivals for %d tasks", c.Arrivals, n)
	}
	attempts := 0
	for _, a := range om.Attempts {
		attempts += a
	}
	if c.Dispatches != int64(attempts) {
		bad("probe saw %d dispatches, metrics report %d attempts", c.Dispatches, attempts)
	}
	if rejected := om.RejectedCount(); c.Rejections != int64(rejected) {
		bad("probe saw %d rejections, metrics report %d", c.Rejections, rejected)
	}
	if shed := om.ShedCount(); c.Sheds != int64(shed) {
		bad("probe saw %d sheds, metrics report %d", c.Sheds, shed)
	}
	if c.Ejections != int64(om.Ejections) {
		bad("probe saw %d ejections, metrics report %d", c.Ejections, om.Ejections)
	}
	if c.Readmissions != int64(om.Readmissions) {
		bad("probe saw %d readmissions, metrics report %d", c.Readmissions, om.Readmissions)
	}
	excluded := om.DroppedCount() + om.RejectedCount() + om.ShedCount()
	if dropped := om.DroppedCount(); c.Drops != int64(dropped) {
		bad("probe saw %d drops, metrics report %d", c.Drops, dropped)
	} else if c.Completions != int64(n-excluded) {
		bad("probe saw %d completions for %d completed tasks", c.Completions, n-excluded)
	}
	if c.doneCalls != 1 {
		bad("OnDone fired %d times", c.doneCalls)
	} else if c.makespan != om.Makespan {
		bad("probe makespan %v, metrics report %v", c.makespan, om.Makespan)
	}
	for i, task := range inst.Tasks {
		end := c.ends[i]
		rejected := om.Rejected != nil && om.Rejected[i]
		shed := om.Shed != nil && om.Shed[i]
		if rejected != c.rejected[i] {
			bad("task %d rejected flag: probe %v, metrics %v", i, c.rejected[i], rejected)
		}
		if shed != c.shed[i] {
			bad("task %d shed flag: probe %v, metrics %v", i, c.shed[i], shed)
		}
		if om.Dropped[i] || rejected || shed {
			kinds := 0
			for _, b := range [...]bool{om.Dropped[i], rejected, shed} {
				if b {
					kinds++
				}
			}
			if kinds > 1 {
				bad("task %d carries %d dispositions", i, kinds)
			}
			if !math.IsNaN(end) {
				bad("non-completed task %d completed at %v", i, end)
			}
			if rejected && om.Flows[i] != 0 {
				bad("rejected task %d carries flow %v", i, om.Flows[i])
			}
			continue
		}
		if math.IsNaN(end) {
			bad("task %d never completed in the event stream", i)
			continue
		}
		want := task.Release + om.Flows[i]
		if math.Abs(end-want) > 1e-9*(1+math.Abs(want)) {
			bad("task %d completed at %v, metrics imply %v", i, end, want)
		}
	}
	return vs
}

// crossCheckHedge compares the probe's hedge event counts against a hedged
// run's metrics — including the resolution equation every issued copy must
// satisfy (win ∨ cancelled ∨ revoked, exactly once) — and, for unhedged
// runs, that no hedge state leaked out at all.
func (c *countProbe) crossCheckHedge(inst *core.Instance, em *sim.ElasticMetrics, hedged bool) []audit.Violation {
	var vs []audit.Violation
	bad := func(format string, args ...any) {
		vs = append(vs, audit.Violation{Invariant: InvProbe, Task: -1, Machine: -1,
			Detail: fmt.Sprintf(format, args...)})
	}
	if !hedged {
		if c.Hedges != 0 || c.HedgeWins != 0 || c.HedgeCancels != 0 {
			bad("unhedged run emitted hedge events (%d/%d/%d)", c.Hedges, c.HedgeWins, c.HedgeCancels)
		}
		if em.HedgesIssued != 0 || em.Hedged != nil {
			bad("unhedged run carries hedge metrics (issued=%d)", em.HedgesIssued)
		}
		return vs
	}
	// Every issued copy resolves exactly once: it wins, it is cancelled, or
	// tied mode revokes it at service start.
	if em.HedgesIssued != em.HedgeWinsCopy+em.HedgesCancelled+em.HedgesRevoked {
		bad("hedge resolution broken: issued %d ≠ copy-wins %d + cancelled %d + revoked %d",
			em.HedgesIssued, em.HedgeWinsCopy, em.HedgesCancelled, em.HedgesRevoked)
	}
	if c.Hedges != int64(em.HedgesIssued) {
		bad("probe saw %d hedges, metrics report %d", c.Hedges, em.HedgesIssued)
	}
	if wins := em.HedgeWinsPrimary + em.HedgeWinsCopy; c.HedgeWins != int64(wins) {
		bad("probe saw %d hedge wins, metrics report %d", c.HedgeWins, wins)
	}
	if c.HedgeCopyWins != int64(em.HedgeWinsCopy) {
		bad("probe saw %d copy wins, metrics report %d", c.HedgeCopyWins, em.HedgeWinsCopy)
	}
	// Cancel events cover every losing copy plus at most one primary-side
	// cancellation per hedged task (a copy win, or a tied revocation).
	if lo := int64(em.HedgesCancelled + em.HedgesRevoked); c.HedgeCancels < lo || c.HedgeCancels > lo+int64(em.HedgesIssued) {
		bad("probe saw %d hedge cancels for %d cancelled + %d revoked copies (%d issued)",
			c.HedgeCancels, em.HedgesCancelled, em.HedgesRevoked, em.HedgesIssued)
	}
	if em.DuplicateWork < 0 || em.CancelledWork < 0 {
		bad("negative hedge work accounting: duplicate %v, cancelled %v", em.DuplicateWork, em.CancelledWork)
	}
	for i := range inst.Tasks {
		if em.Hedged[i] != c.hedged[i] {
			bad("task %d hedged flag: probe %v, metrics %v", i, c.hedged[i], em.Hedged[i])
		}
		if em.HedgeWonByCopy[i] != c.wonByCopy[i] {
			bad("task %d won-by-copy flag: probe %v, metrics %v", i, c.wonByCopy[i], em.HedgeWonByCopy[i])
		}
	}
	return vs
}

// crossCheckResilience compares the probe's resilience event counts against
// a resilient run's metrics — the breaker transition and probe totals, the
// retry-budget ledger's conservation equation and the per-task budget-drop
// dispositions — and, for unprotected runs, that no resilience state leaked
// out at all.
func (c *countProbe) crossCheckResilience(inst *core.Instance, em *sim.ElasticMetrics, resilient bool) []audit.Violation {
	var vs []audit.Violation
	bad := func(format string, args ...any) {
		vs = append(vs, audit.Violation{Invariant: InvProbe, Task: -1, Machine: -1,
			Detail: fmt.Sprintf(format, args...)})
	}
	if !resilient {
		if c.BreakerOpens != 0 || c.BreakerProbes != 0 || c.BreakerCloses != 0 || c.RetryBudgetDrops != 0 {
			bad("unprotected run emitted resilience events (%d/%d/%d/%d)",
				c.BreakerOpens, c.BreakerProbes, c.BreakerCloses, c.RetryBudgetDrops)
		}
		if em.RetriesRequested != 0 || em.RetriesIssued != 0 || em.RetriesDropped != 0 {
			bad("unprotected run carries a retry-budget ledger (%d/%d/%d)",
				em.RetriesRequested, em.RetriesIssued, em.RetriesDropped)
		}
		if em.BreakerSpans != nil || em.ProbeDispatch != nil || em.BudgetDropped != nil {
			bad("unprotected run carries breaker or budget metrics")
		}
		return vs
	}
	if em.RetriesIssued+em.RetriesDropped != em.RetriesRequested {
		bad("budget conservation broken: issued %d + dropped %d ≠ requested %d",
			em.RetriesIssued, em.RetriesDropped, em.RetriesRequested)
	}
	if c.RetryBudgetDrops != int64(em.RetriesDropped) {
		bad("probe saw %d budget drops, metrics report %d", c.RetryBudgetDrops, em.RetriesDropped)
	}
	if c.BreakerOpens != int64(em.BreakerOpens) {
		bad("probe saw %d breaker opens, metrics report %d", c.BreakerOpens, em.BreakerOpens)
	}
	if c.BreakerCloses != int64(em.BreakerCloses) {
		bad("probe saw %d breaker closes, metrics report %d", c.BreakerCloses, em.BreakerCloses)
	}
	if c.BreakerProbes != int64(em.BreakerProbes) {
		bad("probe saw %d breaker probes, metrics report %d", c.BreakerProbes, em.BreakerProbes)
	}
	if em.BreakerOpens != len(em.BreakerSpans) {
		bad("metrics report %d breaker opens for %d recorded spans", em.BreakerOpens, len(em.BreakerSpans))
	}
	for i := range inst.Tasks {
		if em.BudgetDropped != nil && em.BudgetDropped[i] != c.budgetDropped[i] {
			bad("task %d budget-dropped flag: probe %v, metrics %v", i, c.budgetDropped[i], em.BudgetDropped[i])
		}
		// ProbeDispatch marks tasks whose final dispatch was a half-open
		// probe; every such dispatch fired OnBreakerProbe (the converse need
		// not hold — an aborted probe clears the flag, not the event).
		if em.ProbeDispatch != nil && em.ProbeDispatch[i] && !c.probed[i] {
			bad("task %d marked a probe dispatch without a breaker-probe event", i)
		}
	}
	return vs
}

// crossCheckElastic compares the probe's membership event counts against an
// elastic run's metrics and membership log, one InvProbe violation per
// disagreement.
func (c *countProbe) crossCheckElastic(inst *core.Instance, em *sim.ElasticMetrics) []audit.Violation {
	var vs []audit.Violation
	bad := func(format string, args ...any) {
		vs = append(vs, audit.Violation{Invariant: InvProbe, Task: -1, Machine: -1,
			Detail: fmt.Sprintf(format, args...)})
	}
	if c.ScaleUps != int64(em.ScaleUps) {
		bad("probe saw %d scale-ups, metrics report %d", c.ScaleUps, em.ScaleUps)
	}
	if c.ScaleDowns != int64(em.ScaleDowns) {
		bad("probe saw %d scale-downs, metrics report %d", c.ScaleDowns, em.ScaleDowns)
	}
	if c.Handoffs != int64(em.Handoffs) {
		bad("probe saw %d handoffs, metrics report %d", c.Handoffs, em.Handoffs)
	}
	if int64(c.drainHandoffs) != c.Handoffs {
		bad("drain events total %d handoffs, per-task events total %d", c.drainHandoffs, c.Handoffs)
	}
	if c.Joins > c.ScaleUps {
		bad("probe saw %d joins for %d scale-ups", c.Joins, c.ScaleUps)
	}
	if math.Abs(float64(c.WarmUpTime-em.WarmUpTime)) > 1e-9*(1+math.Abs(float64(em.WarmUpTime))) {
		bad("probe accumulated warm-up %v, metrics report %v", c.WarmUpTime, em.WarmUpTime)
	}
	ms := em.Membership
	if ms == nil {
		bad("elastic run reported no membership log")
		return vs
	}
	if ms.Capacity != inst.M {
		bad("membership log capacity %d for a %d-slot instance", ms.Capacity, inst.M)
	}
	joins, drains := 0, 0
	for _, ch := range ms.Changes {
		if ch.Join {
			joins++
		} else {
			drains++
		}
	}
	if int64(joins) != c.Joins {
		bad("membership log has %d joins, probe saw %d", joins, c.Joins)
	}
	if int64(drains) != c.ScaleDowns {
		bad("membership log has %d drains, probe saw %d", drains, c.ScaleDowns)
	}
	if len(em.Dispatched) != inst.N() {
		bad("dispatch log has %d entries for %d tasks", len(em.Dispatched), inst.N())
	}
	return vs
}
