package obs

import "flowsched/internal/core"

// OverloadObserver is the optional extension interface for probes that want
// the overload-control event stream (sim.Config.Overload): admission rejections,
// shedding, outlier ejection/re-admission and the SLO guard's brownout
// transitions. The simulator type-asserts its probe once per run; probes
// that don't implement the interface simply never see these events, so the
// base Probe contract (and every existing probe) is untouched.
//
// Multi forwards overload events to each member that implements the
// interface. Embed BaseOverloadObserver to opt in selectively.
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

// BaseOverloadObserver is a no-op OverloadObserver for embedding.
type BaseOverloadObserver struct{}

// OnReject implements OverloadObserver.
func (BaseOverloadObserver) OnReject(task int, at core.Time, reason string) {}

// OnShed implements OverloadObserver.
func (BaseOverloadObserver) OnShed(task, server int, release, at core.Time, reason string) {}

// OnEject implements OverloadObserver.
func (BaseOverloadObserver) OnEject(server int, at core.Time) {}

// OnReadmit implements OverloadObserver.
func (BaseOverloadObserver) OnReadmit(server int, at core.Time) {}

// OnBrownout implements OverloadObserver.
func (BaseOverloadObserver) OnBrownout(at core.Time, active bool) {}

// OnReject implements OverloadObserver, forwarding to members that observe
// overload events.
func (m multi) OnReject(task int, at core.Time, reason string) {
	for _, p := range m {
		if o, ok := p.(OverloadObserver); ok {
			o.OnReject(task, at, reason)
		}
	}
}

// OnShed implements OverloadObserver.
func (m multi) OnShed(task, server int, release, at core.Time, reason string) {
	for _, p := range m {
		if o, ok := p.(OverloadObserver); ok {
			o.OnShed(task, server, release, at, reason)
		}
	}
}

// OnEject implements OverloadObserver.
func (m multi) OnEject(server int, at core.Time) {
	for _, p := range m {
		if o, ok := p.(OverloadObserver); ok {
			o.OnEject(server, at)
		}
	}
}

// OnReadmit implements OverloadObserver.
func (m multi) OnReadmit(server int, at core.Time) {
	for _, p := range m {
		if o, ok := p.(OverloadObserver); ok {
			o.OnReadmit(server, at)
		}
	}
}

// OnBrownout implements OverloadObserver.
func (m multi) OnBrownout(at core.Time, active bool) {
	for _, p := range m {
		if o, ok := p.(OverloadObserver); ok {
			o.OnBrownout(at, active)
		}
	}
}
