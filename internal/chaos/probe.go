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
// dispositions, membership log and hedge ledger as well as their counts.
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

// probeReport collects the cross-check's InvProbe violations.
type probeReport []audit.Violation

func (r *probeReport) bad(format string, args ...any) {
	*r = append(*r, audit.Violation{Invariant: InvProbe, Task: -1, Machine: -1,
		Detail: fmt.Sprintf(format, args...)})
}

// crossCheck compares the probe's view of the run with the metrics the run
// reports, for the layers the run armed, and returns one InvProbe violation
// per disagreement. Retry-budget conservation and the breaker span count
// are left to the auditor, which Check arms on every resilient run.
func (c *countProbe) crossCheck(inst *core.Instance, em *sim.ElasticMetrics, elastic, hedged, resilient bool) []audit.Violation {
	var r probeReport
	om := &em.OverloadMetrics
	n := inst.N()
	if c.Arrivals != int64(n) {
		r.bad("probe saw %d arrivals for %d tasks", c.Arrivals, n)
	}
	attempts := 0
	for _, a := range om.Attempts {
		attempts += a
	}
	if c.Dispatches != int64(attempts) {
		r.bad("probe saw %d dispatches, metrics report %d attempts", c.Dispatches, attempts)
	}
	for _, t := range [...]struct {
		armed  bool
		what   string
		probe  int64
		metric int
	}{
		{true, "rejections", c.Rejections, om.RejectedCount()},
		{true, "sheds", c.Sheds, om.ShedCount()},
		{true, "ejections", c.Ejections, om.Ejections},
		{true, "readmissions", c.Readmissions, om.Readmissions},
		{elastic, "scale-ups", c.ScaleUps, em.ScaleUps},
		{elastic, "scale-downs", c.ScaleDowns, em.ScaleDowns},
		{elastic, "handoffs", c.Handoffs, em.Handoffs},
		{hedged, "hedges", c.Hedges, em.HedgesIssued},
		{hedged, "hedge wins", c.HedgeWins, em.HedgeWinsPrimary + em.HedgeWinsCopy},
		{hedged, "copy wins", c.HedgeCopyWins, em.HedgeWinsCopy},
		{resilient, "budget drops", c.RetryBudgetDrops, em.RetriesDropped},
		{resilient, "breaker opens", c.BreakerOpens, em.BreakerOpens},
		{resilient, "breaker closes", c.BreakerCloses, em.BreakerCloses},
		{resilient, "breaker probes", c.BreakerProbes, em.BreakerProbes},
	} {
		if t.armed && t.probe != int64(t.metric) {
			r.bad("probe saw %d %s, metrics report %d", t.probe, t.what, t.metric)
		}
	}
	excluded := om.DroppedCount() + om.RejectedCount() + om.ShedCount()
	if dropped := om.DroppedCount(); c.Drops != int64(dropped) {
		r.bad("probe saw %d drops, metrics report %d", c.Drops, dropped)
	} else if c.Completions != int64(n-excluded) {
		r.bad("probe saw %d completions for %d completed tasks", c.Completions, n-excluded)
	}
	if c.doneCalls != 1 {
		r.bad("OnDone fired %d times", c.doneCalls)
	} else if c.makespan != om.Makespan {
		r.bad("probe makespan %v, metrics report %v", c.makespan, om.Makespan)
	}
	c.checkTasks(&r, inst, om)
	if elastic {
		c.checkMembership(&r, inst, em)
	}
	c.checkHedge(&r, inst, em, hedged)
	c.checkResilience(&r, inst, em, resilient)
	return r
}

// checkTasks compares each task's disposition and completion instant in the
// event stream with the metrics.
func (c *countProbe) checkTasks(r *probeReport, inst *core.Instance, om *sim.OverloadMetrics) {
	for i, task := range inst.Tasks {
		end := c.ends[i]
		rejected := om.Rejected != nil && om.Rejected[i]
		shed := om.Shed != nil && om.Shed[i]
		if rejected != c.rejected[i] {
			r.bad("task %d rejected flag: probe %v, metrics %v", i, c.rejected[i], rejected)
		}
		if shed != c.shed[i] {
			r.bad("task %d shed flag: probe %v, metrics %v", i, c.shed[i], shed)
		}
		if om.Dropped[i] || rejected || shed {
			kinds := 0
			for _, b := range [...]bool{om.Dropped[i], rejected, shed} {
				if b {
					kinds++
				}
			}
			if kinds > 1 {
				r.bad("task %d carries %d dispositions", i, kinds)
			}
			if !math.IsNaN(end) {
				r.bad("non-completed task %d completed at %v", i, end)
			}
			if rejected && om.Flows[i] != 0 {
				r.bad("rejected task %d carries flow %v", i, om.Flows[i])
			}
			continue
		}
		if math.IsNaN(end) {
			r.bad("task %d never completed in the event stream", i)
			continue
		}
		want := task.Release + om.Flows[i]
		if math.Abs(end-want) > 1e-9*(1+math.Abs(want)) {
			r.bad("task %d completed at %v, metrics imply %v", i, end, want)
		}
	}
}

// checkHedge checks a hedged run's resolution equation — every issued copy
// wins, is cancelled or is revoked, exactly once — its cancel events, work
// accounting and per-task hedge marks; for an unhedged run, that no hedge
// state leaked out at all.
func (c *countProbe) checkHedge(r *probeReport, inst *core.Instance, em *sim.ElasticMetrics, hedged bool) {
	if !hedged {
		if c.Hedges != 0 || c.HedgeWins != 0 || c.HedgeCancels != 0 {
			r.bad("unhedged run emitted hedge events (%d/%d/%d)", c.Hedges, c.HedgeWins, c.HedgeCancels)
		}
		if em.HedgesIssued != 0 || em.Hedged != nil {
			r.bad("unhedged run carries hedge metrics (issued=%d)", em.HedgesIssued)
		}
		return
	}
	if em.HedgesIssued != em.HedgeWinsCopy+em.HedgesCancelled+em.HedgesRevoked {
		r.bad("hedge resolution broken: issued %d ≠ copy-wins %d + cancelled %d + revoked %d",
			em.HedgesIssued, em.HedgeWinsCopy, em.HedgesCancelled, em.HedgesRevoked)
	}
	// Cancel events cover every losing copy plus at most one primary-side
	// cancellation per hedged task (a copy win, or a tied revocation).
	if lo := int64(em.HedgesCancelled + em.HedgesRevoked); c.HedgeCancels < lo || c.HedgeCancels > lo+int64(em.HedgesIssued) {
		r.bad("probe saw %d hedge cancels for %d cancelled + %d revoked copies (%d issued)",
			c.HedgeCancels, em.HedgesCancelled, em.HedgesRevoked, em.HedgesIssued)
	}
	if em.DuplicateWork < 0 || em.CancelledWork < 0 {
		r.bad("negative hedge work accounting: duplicate %v, cancelled %v", em.DuplicateWork, em.CancelledWork)
	}
	for i := range inst.Tasks {
		if em.Hedged[i] != c.hedged[i] {
			r.bad("task %d hedged flag: probe %v, metrics %v", i, c.hedged[i], em.Hedged[i])
		}
		if em.HedgeWonByCopy[i] != c.wonByCopy[i] {
			r.bad("task %d won-by-copy flag: probe %v, metrics %v", i, c.wonByCopy[i], em.HedgeWonByCopy[i])
		}
	}
}

// checkResilience checks a resilient run's per-task budget-drop and probe
// marks; for an unprotected run, that no resilience state leaked out at all.
func (c *countProbe) checkResilience(r *probeReport, inst *core.Instance, em *sim.ElasticMetrics, resilient bool) {
	if !resilient {
		if c.BreakerOpens != 0 || c.BreakerProbes != 0 || c.BreakerCloses != 0 || c.RetryBudgetDrops != 0 {
			r.bad("unprotected run emitted resilience events (%d/%d/%d/%d)",
				c.BreakerOpens, c.BreakerProbes, c.BreakerCloses, c.RetryBudgetDrops)
		}
		if em.RetriesRequested != 0 || em.RetriesIssued != 0 || em.RetriesDropped != 0 {
			r.bad("unprotected run carries a retry-budget ledger (%d/%d/%d)",
				em.RetriesRequested, em.RetriesIssued, em.RetriesDropped)
		}
		if em.BreakerSpans != nil || em.ProbeDispatch != nil || em.BudgetDropped != nil {
			r.bad("unprotected run carries breaker or budget metrics")
		}
		return
	}
	for i := range inst.Tasks {
		if em.BudgetDropped != nil && em.BudgetDropped[i] != c.budgetDropped[i] {
			r.bad("task %d budget-dropped flag: probe %v, metrics %v", i, c.budgetDropped[i], em.BudgetDropped[i])
		}
		// ProbeDispatch marks tasks whose final dispatch was a half-open
		// probe; every such dispatch fired a breaker-probe event (the
		// converse need not hold — an aborted probe clears the flag, not the
		// event).
		if em.ProbeDispatch != nil && em.ProbeDispatch[i] && !c.probed[i] {
			r.bad("task %d marked a probe dispatch without a breaker-probe event", i)
		}
	}
}

// checkMembership checks an elastic run's drain and join totals, warm-up
// time and membership log against the probe's view.
func (c *countProbe) checkMembership(r *probeReport, inst *core.Instance, em *sim.ElasticMetrics) {
	if int64(c.drainHandoffs) != c.Handoffs {
		r.bad("drain events total %d handoffs, per-task events total %d", c.drainHandoffs, c.Handoffs)
	}
	if c.Joins > c.ScaleUps {
		r.bad("probe saw %d joins for %d scale-ups", c.Joins, c.ScaleUps)
	}
	if math.Abs(float64(c.WarmUpTime-em.WarmUpTime)) > 1e-9*(1+math.Abs(float64(em.WarmUpTime))) {
		r.bad("probe accumulated warm-up %v, metrics report %v", c.WarmUpTime, em.WarmUpTime)
	}
	ms := em.Membership
	if ms == nil {
		r.bad("elastic run reported no membership log")
		return
	}
	if ms.Capacity != inst.M {
		r.bad("membership log capacity %d for a %d-slot instance", ms.Capacity, inst.M)
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
		r.bad("membership log has %d joins, probe saw %d", joins, c.Joins)
	}
	if int64(drains) != c.ScaleDowns {
		r.bad("membership log has %d drains, probe saw %d", drains, c.ScaleDowns)
	}
	if len(em.Dispatched) != inst.N() {
		r.bad("dispatch log has %d entries for %d tasks", len(em.Dispatched), inst.N())
	}
}
