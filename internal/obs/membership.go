package obs

import "flowsched/internal/core"

// MembershipObserver is the optional extension interface for probes that
// want the elastic-membership event stream (sim.Config.Elastic): scale-up
// announcements, joins at the end of warm-up, drains and per-task handoffs.
// The simulator type-asserts its probe once per run, exactly like
// OverloadObserver; probes that don't implement the interface never see
// these events.
//
// Multi forwards membership events to each member that implements the
// interface. Embed BaseMembershipObserver to opt in selectively.
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

// BaseMembershipObserver is a no-op MembershipObserver for embedding.
type BaseMembershipObserver struct{}

// OnScaleUp implements MembershipObserver.
func (BaseMembershipObserver) OnScaleUp(machine int, at, ready core.Time) {}

// OnJoin implements MembershipObserver.
func (BaseMembershipObserver) OnJoin(machine int, at core.Time, members int) {}

// OnScaleDown implements MembershipObserver.
func (BaseMembershipObserver) OnScaleDown(machine int, at core.Time, members, handoffs int) {}

// OnHandoff implements MembershipObserver.
func (BaseMembershipObserver) OnHandoff(task, from int, at core.Time) {}

// OnScaleUp implements MembershipObserver, forwarding to members that
// observe membership events.
func (m multi) OnScaleUp(machine int, at, ready core.Time) {
	for _, p := range m {
		if o, ok := p.(MembershipObserver); ok {
			o.OnScaleUp(machine, at, ready)
		}
	}
}

// OnJoin implements MembershipObserver.
func (m multi) OnJoin(machine int, at core.Time, members int) {
	for _, p := range m {
		if o, ok := p.(MembershipObserver); ok {
			o.OnJoin(machine, at, members)
		}
	}
}

// OnScaleDown implements MembershipObserver.
func (m multi) OnScaleDown(machine int, at core.Time, members, handoffs int) {
	for _, p := range m {
		if o, ok := p.(MembershipObserver); ok {
			o.OnScaleDown(machine, at, members, handoffs)
		}
	}
}

// OnHandoff implements MembershipObserver.
func (m multi) OnHandoff(task, from int, at core.Time) {
	for _, p := range m {
		if o, ok := p.(MembershipObserver); ok {
			o.OnHandoff(task, from, at)
		}
	}
}
