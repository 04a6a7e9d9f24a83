// Package obs is the in-flight observability layer of the cluster
// simulator: probes that watch a run while it executes instead of replaying
// the finished core.Schedule through trace.FromSchedule.
//
// A Probe receives the simulator's event stream (arrivals, dispatches,
// completions, plus the fault hooks of the engine's fault layer) through
// plain method
// calls. The simulator invokes every hook behind a `probe != nil` guard, so
// a run without a probe pays nothing — the hot loops stay allocation-free
// (pinned by the alloc guards in internal/sim; benchreg's ProbeOverheadSimHist
// times the probed run against SimRunEFT). Probes themselves may allocate: they are only on the
// instrumented path.
//
// Six built-in probes cover the production observables:
//
//   - Histogram / HistogramProbe: streaming log-bucketed flow-time and
//     stretch distributions with bounded memory, quantile queries, and
//     per-bucket task exemplars (QuantileExemplar);
//   - Sampler: a fixed-interval time series of per-server queue length,
//     in-flight max-flow watermark and instantaneous utilization — the
//     w_τ(j) profile of the paper's Section 6 lower bounds, live;
//   - JSONLSink: a buffered structured event log for offline analysis,
//     replayable into a trace (ReplayTrace);
//   - Counters: dispatch/retry/drop/failover/overload/membership totals
//     with Prometheus-style text exposition;
//   - Tracer: per-task causal span trees (queued → attempts → terminal
//     disposition) with KeepAll or KeepWorst(k) retention;
//   - FlightRecorder: a fixed-size ring of the last N raw events — the
//     crash recorder chaos and audit dump next to their findings.
//
// Four optional extension interfaces widen the base 7-hook Probe contract:
// OverloadObserver (reject/shed/eject/readmit/brownout, fired under
// sim.Config.Overload), MembershipObserver (scale-up/join/scale-down/
// handoff, under sim.Config.Elastic), HedgeObserver (hedge/hedge-win/
// hedge-cancel, under sim.Config.Hedge) and ResilienceObserver (breaker
// open/probe/close and retry-budget drops, under sim.Config.Resilience). The
// simulator type-asserts its probe once per run, so probes opt in by
// implementing the methods — Counters and FlightRecorder observe all 23
// hooks, Tracer everything but the resilience stream, the other probes only
// the base stream.
//
// Multi fans one event stream out to several probes, forwarding extension
// hooks to the members that implement them.
package obs

import "flowsched/internal/core"

// Probe observes a simulation run in flight. All hooks are invoked
// synchronously from the simulator loop; implementations must not retain
// the goroutine or block.
//
// Event-time contract: the fault-free simulator (sim.Run) determines a
// request's completion at dispatch, so OnComplete fires immediately after
// OnDispatch with the — possibly future — completion instant in end.
// Probes that need events in time order must reorder internally (Sampler
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
	// release and proc echo the task so probes need no per-task state to
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

// BaseProbe is a no-op Probe for embedding: custom probes override only the
// hooks they care about.
type BaseProbe struct{}

// OnArrival implements Probe.
func (BaseProbe) OnArrival(task int, release core.Time) {}

// OnDispatch implements Probe.
func (BaseProbe) OnDispatch(task, server int, at, start, end core.Time) {}

// OnComplete implements Probe.
func (BaseProbe) OnComplete(task, server int, release, proc, end core.Time) {}

// OnDrop implements Probe.
func (BaseProbe) OnDrop(task int, release, at core.Time) {}

// OnRetry implements Probe.
func (BaseProbe) OnRetry(task, attempt int, at core.Time) {}

// OnFailover implements Probe.
func (BaseProbe) OnFailover(server int, at core.Time, lost int) {}

// OnDone implements Probe.
func (BaseProbe) OnDone(makespan core.Time) {}

// multi fans events out to several probes in order.
type multi []Probe

// Multi combines probes into one: every event is forwarded to each probe in
// argument order. Nil entries are skipped; Multi() and Multi(nil...) return
// nil, so the simulator's nil guard still short-circuits.
func Multi(probes ...Probe) Probe {
	kept := make(multi, 0, len(probes))
	for _, p := range probes {
		if p != nil {
			kept = append(kept, p)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}

// OnArrival implements Probe.
func (m multi) OnArrival(task int, release core.Time) {
	for _, p := range m {
		p.OnArrival(task, release)
	}
}

// OnDispatch implements Probe.
func (m multi) OnDispatch(task, server int, at, start, end core.Time) {
	for _, p := range m {
		p.OnDispatch(task, server, at, start, end)
	}
}

// OnComplete implements Probe.
func (m multi) OnComplete(task, server int, release, proc, end core.Time) {
	for _, p := range m {
		p.OnComplete(task, server, release, proc, end)
	}
}

// OnDrop implements Probe.
func (m multi) OnDrop(task int, release, at core.Time) {
	for _, p := range m {
		p.OnDrop(task, release, at)
	}
}

// OnRetry implements Probe.
func (m multi) OnRetry(task, attempt int, at core.Time) {
	for _, p := range m {
		p.OnRetry(task, attempt, at)
	}
}

// OnFailover implements Probe.
func (m multi) OnFailover(server int, at core.Time, lost int) {
	for _, p := range m {
		p.OnFailover(server, at, lost)
	}
}

// OnDone implements Probe.
func (m multi) OnDone(makespan core.Time) {
	for _, p := range m {
		p.OnDone(makespan)
	}
}
