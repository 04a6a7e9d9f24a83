package obs

import "flowsched/internal/core"

// Kind names what an Event reports: one kind per simulator hook.
type Kind uint8

// The event kinds, in hook order: the base Probe stream, then the
// overload, membership, hedge and resilience streams.
const (
	Arrival Kind = iota
	Dispatch
	Complete
	Drop
	Retry
	Failover
	Done
	Reject
	Shed
	Eject
	Readmit
	Brownout
	ScaleUp
	Join
	ScaleDown
	Handoff
	Hedge
	HedgeWin
	HedgeCancel
	BreakerOpen
	BreakerProbe
	BreakerClose
	RetryBudgetDrop
	// numKinds is the number of event kinds.
	numKinds
)

var kindNames = [numKinds]string{
	Arrival: "arrival", Dispatch: "dispatch", Complete: "complete", Drop: "drop",
	Retry: "retry", Failover: "failover", Done: "done",
	Reject: "reject", Shed: "shed", Eject: "eject", Readmit: "readmit", Brownout: "brownout",
	ScaleUp: "scale-up", Join: "join", ScaleDown: "scale-down", Handoff: "handoff",
	Hedge: "hedge", HedgeWin: "hedge-win", HedgeCancel: "hedge-cancel",
	BreakerOpen: "breaker-open", BreakerProbe: "breaker-probe", BreakerClose: "breaker-close",
	RetryBudgetDrop: "retry-budget-drop",
}

// String returns the kind's wire name (FlightEvent.Ev, JSONLSink's "ev").
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one engine event: a flat value of 72 bytes that every sink
// receives and the flight recorder stores as is. What each field holds
// depends on the kind (the hook's parameters, renamed):
//
//	Kind               Task  Server   Aux       At        T1        T2    Flag     Reason
//	arrival            task  −1       ·         release   ·         ·     ·        ·
//	dispatch           task  server   ·         at        start     end   ·        ·
//	complete           task  server   ·         end       release   proc  ·        ·
//	drop               task  −1       ·         at        release   ·     ·        ·
//	retry              task  −1       attempt   at        ·         ·     ·        ·
//	failover           −1    server   lost      at        ·         ·     ·        ·
//	done               −1    −1       ·         makespan  ·         ·     ·        ·
//	reject             task  −1       ·         at        ·         ·     ·        reason
//	shed               task  server   ·         at        release   ·     ·        reason
//	eject              −1    server   ·         at        ·         ·     ·        ·
//	readmit            −1    server   ·         at        ·         ·     ·        ·
//	brownout           −1    −1       ·         at        ·         ·     active   ·
//	scale-up           −1    machine  ·         at        ready     ·     ·        ·
//	join               −1    machine  members   at        ·         ·     ·        ·
//	scale-down         −1    machine  members   at        handoffs  ·     ·        ·
//	handoff            task  from     ·         at        ·         ·     ·        ·
//	hedge              task  to       from      at        start     end   ·        ·
//	hedge-win          task  server   ·         at        ·         ·     byCopy   ·
//	hedge-cancel       task  server   ·         at        ·         ·     started  ·
//	breaker-open       −1    server   ·         at        ·         ·     ·        ·
//	breaker-probe      task  server   ·         at        ·         ·     ·        ·
//	breaker-close      −1    server   ·         at        ·         ·     ·        ·
//	retry-budget-drop  task  −1       attempts  at        ·         ·     ·        ·
//
// Task and Server are −1 on the kinds that name none; every other field a
// kind leaves unused (·) is zero. A scale-down's T1 is a count, the number
// of queued tasks handed off, held as an integer-valued instant.
type Event struct {
	Kind   Kind
	Flag   bool
	Task   int
	Server int
	Aux    int
	At     core.Time
	T1, T2 core.Time
	Reason string
}

// Sink observes a run as a stream of Events. Observe is called
// synchronously from the simulator loop for every event of every kind;
// a sink ignores the kinds it does not use and must not block.
type Sink interface {
	Observe(Event)
}

// multi is the one hook implementation: every hook builds its Event and
// hands it to each sink in order. It is used through a pointer so that the
// engine's interface calls land on its methods directly, not on wrappers
// that first copy a slice header out of the interface.
type multi struct{ sinks []Sink }

// Multi returns the probe that feeds the simulator's hooks to the given
// sinks, each event to every sink in argument order. Nil entries are
// skipped; Multi() and Multi(nil...) return nil, so the simulator's nil
// guard still short-circuits.
func Multi(sinks ...Sink) Probe {
	kept := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	return &multi{kept}
}

func (m *multi) emit(e Event) {
	for _, s := range m.sinks {
		s.Observe(e)
	}
}

// OnArrival implements Probe.
func (m *multi) OnArrival(task int, release core.Time) {
	m.emit(Event{Kind: Arrival, Task: task, Server: -1, At: release})
}

// OnDispatch implements Probe.
func (m *multi) OnDispatch(task, server int, at, start, end core.Time) {
	m.emit(Event{Kind: Dispatch, Task: task, Server: server, At: at, T1: start, T2: end})
}

// OnComplete implements Probe.
func (m *multi) OnComplete(task, server int, release, proc, end core.Time) {
	m.emit(Event{Kind: Complete, Task: task, Server: server, At: end, T1: release, T2: proc})
}

// OnDrop implements Probe.
func (m *multi) OnDrop(task int, release, at core.Time) {
	m.emit(Event{Kind: Drop, Task: task, Server: -1, At: at, T1: release})
}

// OnRetry implements Probe.
func (m *multi) OnRetry(task, attempt int, at core.Time) {
	m.emit(Event{Kind: Retry, Task: task, Server: -1, Aux: attempt, At: at})
}

// OnFailover implements Probe.
func (m *multi) OnFailover(server int, at core.Time, lost int) {
	m.emit(Event{Kind: Failover, Task: -1, Server: server, Aux: lost, At: at})
}

// OnDone implements Probe.
func (m *multi) OnDone(makespan core.Time) {
	m.emit(Event{Kind: Done, Task: -1, Server: -1, At: makespan})
}

// OnReject implements OverloadObserver.
func (m *multi) OnReject(task int, at core.Time, reason string) {
	m.emit(Event{Kind: Reject, Task: task, Server: -1, At: at, Reason: reason})
}

// OnShed implements OverloadObserver.
func (m *multi) OnShed(task, server int, release, at core.Time, reason string) {
	m.emit(Event{Kind: Shed, Task: task, Server: server, At: at, T1: release, Reason: reason})
}

// OnEject implements OverloadObserver.
func (m *multi) OnEject(server int, at core.Time) {
	m.emit(Event{Kind: Eject, Task: -1, Server: server, At: at})
}

// OnReadmit implements OverloadObserver.
func (m *multi) OnReadmit(server int, at core.Time) {
	m.emit(Event{Kind: Readmit, Task: -1, Server: server, At: at})
}

// OnBrownout implements OverloadObserver.
func (m *multi) OnBrownout(at core.Time, active bool) {
	m.emit(Event{Kind: Brownout, Task: -1, Server: -1, At: at, Flag: active})
}

// OnScaleUp implements MembershipObserver.
func (m *multi) OnScaleUp(machine int, at, ready core.Time) {
	m.emit(Event{Kind: ScaleUp, Task: -1, Server: machine, At: at, T1: ready})
}

// OnJoin implements MembershipObserver.
func (m *multi) OnJoin(machine int, at core.Time, members int) {
	m.emit(Event{Kind: Join, Task: -1, Server: machine, Aux: members, At: at})
}

// OnScaleDown implements MembershipObserver.
func (m *multi) OnScaleDown(machine int, at core.Time, members, handoffs int) {
	m.emit(Event{Kind: ScaleDown, Task: -1, Server: machine, Aux: members, At: at, T1: core.Time(handoffs)})
}

// OnHandoff implements MembershipObserver.
func (m *multi) OnHandoff(task, from int, at core.Time) {
	m.emit(Event{Kind: Handoff, Task: task, Server: from, At: at})
}

// OnHedge implements HedgeObserver.
func (m *multi) OnHedge(task, from, to int, at, start, end core.Time) {
	m.emit(Event{Kind: Hedge, Task: task, Server: to, Aux: from, At: at, T1: start, T2: end})
}

// OnHedgeWin implements HedgeObserver.
func (m *multi) OnHedgeWin(task, server int, byCopy bool, at core.Time) {
	m.emit(Event{Kind: HedgeWin, Task: task, Server: server, At: at, Flag: byCopy})
}

// OnHedgeCancel implements HedgeObserver.
func (m *multi) OnHedgeCancel(task, server int, at core.Time, started bool) {
	m.emit(Event{Kind: HedgeCancel, Task: task, Server: server, At: at, Flag: started})
}

// OnBreakerOpen implements ResilienceObserver.
func (m *multi) OnBreakerOpen(server int, at core.Time) {
	m.emit(Event{Kind: BreakerOpen, Task: -1, Server: server, At: at})
}

// OnBreakerProbe implements ResilienceObserver.
func (m *multi) OnBreakerProbe(server, task int, at core.Time) {
	m.emit(Event{Kind: BreakerProbe, Task: task, Server: server, At: at})
}

// OnBreakerClose implements ResilienceObserver.
func (m *multi) OnBreakerClose(server int, at core.Time) {
	m.emit(Event{Kind: BreakerClose, Task: -1, Server: server, At: at})
}

// OnRetryBudgetDrop implements ResilienceObserver.
func (m *multi) OnRetryBudgetDrop(task, attempts int, at core.Time) {
	m.emit(Event{Kind: RetryBudgetDrop, Task: task, Server: -1, Aux: attempts, At: at})
}
