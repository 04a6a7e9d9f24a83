// Package obs is the in-flight observability layer of the cluster
// simulator: observers that watch a run while it executes instead of
// replaying the finished core.Schedule through trace.FromSchedule.
//
// Every observer is a Sink: it receives the run as a stream of flat Event
// values, one per engine event, through a single Observe method, and acts
// on the kinds it cares about. The simulator itself still calls hooks — the
// 7-hook Probe plus the OverloadObserver, MembershipObserver, HedgeObserver
// and ResilienceObserver extensions, which it type-asserts once per run —
// and Multi is the one adapter between the two: it implements all 23 hooks,
// builds one Event per hook call and hands it to each sink in order. The
// simulator invokes every hook behind a `probe != nil` guard, so a run
// without a probe pays nothing — the hot loops stay allocation-free (pinned
// by the alloc guards in internal/sim; benchreg's ProbeOverheadSimHist
// times the probed run against SimRunEFT). Sinks themselves may allocate:
// they are only on the instrumented path.
//
// Six built-in sinks cover the production observables:
//
//   - Histogram / HistogramProbe: streaming log-bucketed flow-time and
//     stretch distributions with bounded memory, quantile queries, and
//     per-bucket task exemplars (QuantileExemplar);
//   - Sampler: a fixed-interval time series of per-server queue length,
//     in-flight max-flow watermark and instantaneous utilization — the
//     w_τ(j) profile of the paper's Section 6 lower bounds, live;
//   - JSONLSink: a buffered structured event log for offline analysis,
//     replayable into a trace (ReplayTrace);
//   - Counters: dispatch/retry/drop/failover/overload/membership/hedge/
//     resilience totals with Prometheus-style text exposition;
//   - Tracer: per-task causal span trees (queued → attempts → terminal
//     disposition) with KeepAll or KeepWorst(k) retention;
//   - FlightRecorder: a fixed-size ring of the last N raw events — the
//     crash recorder chaos and audit dump next to their findings.
package obs

import "flowsched/internal/core"

// Probe is the simulator's base hook set; Multi implements it (and the four
// extension interfaces below) on top of Sinks. All hooks are invoked
// synchronously from the simulator loop; implementations must not retain
// the goroutine or block.
//
// Event-time contract: the fault-free simulator (sim.Run) determines a
// request's completion at dispatch, so OnComplete fires immediately after
// OnDispatch with the — possibly future — completion instant in end.
// Sinks that need events in time order must reorder internally (Sampler
// does, with a pending-completion heap). The layered engine
// (sim.Arena.Run) reports OnComplete only when a completion becomes final,
// in time order; attempts invalidated by a crash are never completed —
// their server's backlog is reported through OnFailover instead.
type Probe interface {
	// OnArrival fires when a request is released.
	OnArrival(task int, release core.Time)
	// OnDispatch fires when the router assigns a request (or a failover
	// re-dispatch) to server at instant at; the attempt occupies
	// [start, end) if it is not aborted.
	OnDispatch(task, server int, at, start, end core.Time)
	// OnComplete fires when a request's completion at end is final.
	// release and proc echo the task so sinks need no per-task state to
	// derive flow (end − release) and stretch ((end − release) / proc).
	OnComplete(task, server int, release, proc, end core.Time)
	// OnDrop fires when the retry policy gives up on a request at instant
	// at (attempt cap or timeout).
	OnDrop(task int, release, at core.Time)
	// OnRetry fires when a request aborted by a crash is rescheduled;
	// attempt counts the dispatches completed so far (≥ 1).
	OnRetry(task, attempt int, at core.Time)
	// OnFailover fires when server crashes at instant at, losing lost
	// queued-or-running requests (they re-enter through OnRetry/OnDrop).
	OnFailover(server int, at core.Time, lost int)
	// OnDone fires once after the last event with the run's makespan.
	OnDone(makespan core.Time)
}

// OverloadObserver is the overload-control hook set (sim.Config.Overload):
// admission rejections, shedding, outlier ejection/re-admission and the SLO
// guard's brownout transitions.
type OverloadObserver interface {
	// OnReject fires when the admission policy turns a task away at its
	// arrival instant.
	OnReject(task int, at core.Time, reason string)
	// OnShed fires when a queued task is abandoned mid-run: by the watermark
	// shedder (server = the machine it was queued on) or by deadline
	// enforcement at dispatch.
	OnShed(task, server int, release, at core.Time, reason string)
	// OnEject fires when the outlier ejector removes a server from routing.
	OnEject(server int, at core.Time)
	// OnReadmit fires when an ejected server's cooldown expires.
	OnReadmit(server int, at core.Time)
	// OnBrownout fires on every transition of the SLO guard's brownout
	// signal.
	OnBrownout(at core.Time, active bool)
}

// MembershipObserver is the elastic-membership hook set
// (sim.Config.Elastic): scale-up announcements, joins at the end of
// warm-up, drains and per-task handoffs.
type MembershipObserver interface {
	// OnScaleUp fires when the controller (script or autoscaler) commits to
	// adding machine; it accepts work from instant ready (= at + warm-up).
	OnScaleUp(machine int, at, ready core.Time)
	// OnJoin fires when machine finishes warming up and becomes active;
	// members is the membership size including it.
	OnJoin(machine int, at core.Time, members int)
	// OnScaleDown fires when machine is drained out of the ring; members is
	// the membership size without it and handoffs the number of queued
	// tasks handed off to survivors (the running task, if any, finishes in
	// place).
	OnScaleDown(machine int, at core.Time, members, handoffs int)
	// OnHandoff fires for each queued task moved off a draining machine,
	// just before its re-dispatch.
	OnHandoff(task, from int, at core.Time)
}

// HedgeObserver is the hedged-execution hook set (sim.Config.Hedge):
// speculative copy dispatches, first-win decisions, and loser
// cancellations.
//
// Event-time contract: OnHedge fires at the copy's dispatch instant;
// exactly one OnHedgeWin fires per hedged task that completes (reporting
// which attempt won); OnHedgeCancel fires for every losing attempt the
// moment it is abandoned — removed from its queue, revoked at service
// start, killed by a crash or drain, or left to run to completion as
// duplicate work (started = true then).
type HedgeObserver interface {
	// OnHedge fires when a speculative copy of task is dispatched to
	// server to at instant at, scheduled to occupy [start, end). from is
	// the primary attempt's server, or −1 when the primary is not in
	// flight (between failover and retry).
	OnHedge(task, from, to int, at, start, end core.Time)
	// OnHedgeWin fires when a hedged task completes: server ran the
	// winning attempt; byCopy reports whether the speculative copy won.
	OnHedgeWin(task, server int, byCopy bool, at core.Time)
	// OnHedgeCancel fires when a losing attempt of task on server is
	// abandoned at instant at. started reports whether the attempt had
	// already entered service (a started loser without cancel-mid-service
	// runs to completion as duplicate work).
	OnHedgeCancel(task, server int, at core.Time, started bool)
}

// ResilienceObserver is the resilience hook set (sim.Config.Resilience):
// breaker opens, half-open probes, probe-success closes and retry-budget
// drops.
type ResilienceObserver interface {
	// OnBreakerOpen fires when server's breaker trips open (a window of
	// failures in the closed state, or a probe failure in half-open).
	OnBreakerOpen(server int, at core.Time)
	// OnBreakerProbe fires when a half-open dispatch of task to server is
	// registered as a probe.
	OnBreakerProbe(server, task int, at core.Time)
	// OnBreakerClose fires when a probe success closes server's breaker.
	OnBreakerClose(server int, at core.Time)
	// OnRetryBudgetDrop fires when the retry budget refuses task's retry
	// after attempts completed attempts; the task takes the BudgetDropped
	// disposition.
	OnRetryBudgetDrop(task, attempts int, at core.Time)
}
