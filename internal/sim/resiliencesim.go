package sim

import (
	"math"

	"flowsched/internal/core"
	"flowsched/internal/elastic"
	"flowsched/internal/eventq"
	"flowsched/internal/faults"
	"flowsched/internal/hedge"
	"flowsched/internal/obs"
	"flowsched/internal/overload"
	"flowsched/internal/resilience"
)

// rsRun is the engine-side runtime of a resilience config: the breaker
// bank, the retry-budget bucket, the jitter state and the per-task probe /
// disposition vectors. It exists only when a config is present, so the
// disabled path touches none of it and stays byte-identical to a run without
// the layer.
type rsRun struct {
	cfg *resilience.Config
	ro  obs.ResilienceObserver

	budget   resilience.Budget
	budgetOn bool
	prev     []core.Time // per-task previous jittered delay (decorrelated mode)
	bdrop    []bool      // per-task budget-drop disposition (metrics.BudgetDropped)

	brk     *resilience.Breakers
	probe   []bool // per-task: the in-flight attempt is a half-open probe
	curSpan []int  // per-server: 1 + index into spans of the open episode (0 = none)
	spans   []resilience.Span
}

// opened books a breaker open episode at now: it ends the previous span
// (a probe-failure re-open), starts a new one, arms the cooldown-expiry
// event and notifies the observer.
func (rs *rsRun) opened(j int, now core.Time, metrics *ElasticMetrics, events *eventq.Queue[faultEvent]) {
	rs.endSpan(j, now, false)
	metrics.BreakerOpens++
	rs.spans = append(rs.spans, resilience.Span{
		Server:     j,
		OpenedAt:   now,
		HalfOpenAt: core.Time(math.NaN()),
		EndedAt:    core.Time(math.NaN()),
	})
	rs.curSpan[j] = len(rs.spans)
	events.Push(rs.brk.OpenUntil(j), faultEvent{kind: evBreaker, server: j})
	if rs.ro != nil {
		rs.ro.OnBreakerOpen(j, now)
	}
}

// refundProbe returns the half-open probe slot attempt id holds on server
// j when the attempt resolves without an outcome (cancelled, revoked,
// handed off or shed), and pushes a same-instant breaker event so parked
// work wakes onto the freed slot. It is a no-op unless id holds a probe —
// a copy (id ≥ n) never does — so callers need no layer guard.
func (rs *rsRun) refundProbe(id, j int, now core.Time, events *eventq.Queue[faultEvent]) {
	if rs == nil || rs.brk == nil || id >= len(rs.probe) || !rs.probe[id] {
		return
	}
	rs.brk.AbortProbe(j)
	rs.probe[id] = false
	events.Push(now, faultEvent{kind: evBreaker, server: j})
}

// halfOpened stamps the open episode's half-open instant.
func (rs *rsRun) halfOpened(j int, now core.Time) {
	if si := rs.curSpan[j]; si > 0 {
		rs.spans[si-1].HalfOpenAt = now
	}
}

// closed books a probe-success close at now and queues a same-instant
// breaker event so parked work wakes onto the readmitted server.
func (rs *rsRun) closed(j int, now core.Time, metrics *ElasticMetrics, events *eventq.Queue[faultEvent]) {
	metrics.BreakerCloses++
	rs.endSpan(j, now, true)
	events.Push(now, faultEvent{kind: evBreaker, server: j})
	if rs.ro != nil {
		rs.ro.OnBreakerClose(j, now)
	}
}

// endSpan finishes server j's current open episode (no-op without one).
func (rs *rsRun) endSpan(j int, now core.Time, closedBy bool) {
	if si := rs.curSpan[j]; si > 0 {
		rs.spans[si-1].EndedAt = now
		rs.spans[si-1].Closed = closedBy
		rs.curSpan[j] = 0
	}
}

// failed classifies a completion outcome for the breaker: a failure when
// the configured slow factor is set and the attempt's observed service
// time reached SlowFactor × the task's nominal processing time.
func (rs *rsRun) failed(inst *core.Instance, task int, start, when core.Time) bool {
	sf := rs.brk.SlowFactor()
	if sf <= 0 {
		return false
	}
	proc := inst.Tasks[task].Proc
	if proc <= 0 {
		return false
	}
	return float64((when-start)/proc) >= sf
}

// RunResilient is Run with the seven layer inputs passed positionally.
//
// Deprecated: use Run with a Config.
func (a *Arena) RunResilient(inst *core.Instance, router Router, plan *faults.Plan, policy RetryPolicy, cfg *overload.Config, ecfg *elastic.Config, hcfg *hedge.Config, rcfg *resilience.Config, probe obs.Probe) (*core.Schedule, *ElasticMetrics, error) {
	return a.Run(inst, router, Config{Plan: plan, Retry: policy, Overload: cfg, Elastic: ecfg, Hedge: hcfg, Resilience: rcfg, Probe: probe})
}
