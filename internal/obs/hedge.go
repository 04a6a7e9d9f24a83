package obs

import "flowsched/internal/core"

// HedgeObserver is the optional extension interface for probes that want
// the hedged-execution event stream (sim.Config.Hedge): speculative copy
// dispatches, first-win decisions, and loser cancellations. The simulator
// type-asserts its probe once per run, exactly like OverloadObserver and
// MembershipObserver; probes that don't implement the interface never see
// these events.
//
// Event-time contract: OnHedge fires at the copy's dispatch instant;
// exactly one OnHedgeWin fires per hedged task that completes (reporting
// which attempt won); OnHedgeCancel fires for every losing attempt the
// moment it is abandoned — removed from its queue, revoked at service
// start, killed by a crash or drain, or left to run to completion as
// duplicate work (started = true then).
//
// Multi forwards hedge events to each member that implements the
// interface. Embed BaseHedgeObserver to opt in selectively.
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

// BaseHedgeObserver is a no-op HedgeObserver for embedding.
type BaseHedgeObserver struct{}

// OnHedge implements HedgeObserver.
func (BaseHedgeObserver) OnHedge(task, from, to int, at, start, end core.Time) {}

// OnHedgeWin implements HedgeObserver.
func (BaseHedgeObserver) OnHedgeWin(task, server int, byCopy bool, at core.Time) {}

// OnHedgeCancel implements HedgeObserver.
func (BaseHedgeObserver) OnHedgeCancel(task, server int, at core.Time, started bool) {}

// OnHedge implements HedgeObserver, forwarding to members that observe
// hedge events.
func (m multi) OnHedge(task, from, to int, at, start, end core.Time) {
	for _, p := range m {
		if o, ok := p.(HedgeObserver); ok {
			o.OnHedge(task, from, to, at, start, end)
		}
	}
}

// OnHedgeWin implements HedgeObserver.
func (m multi) OnHedgeWin(task, server int, byCopy bool, at core.Time) {
	for _, p := range m {
		if o, ok := p.(HedgeObserver); ok {
			o.OnHedgeWin(task, server, byCopy, at)
		}
	}
}

// OnHedgeCancel implements HedgeObserver.
func (m multi) OnHedgeCancel(task, server int, at core.Time, started bool) {
	for _, p := range m {
		if o, ok := p.(HedgeObserver); ok {
			o.OnHedgeCancel(task, server, at, started)
		}
	}
}
