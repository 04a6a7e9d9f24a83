package obs

import "flowsched/internal/core"

// ResilienceObserver is the optional extension interface for probes that
// want the resilience event stream (sim.Config.Resilience): breaker opens,
// half-open probes, probe-success closes and retry-budget drops. The
// simulator type-asserts its probe once per run, exactly like
// OverloadObserver; probes that don't implement the interface never see
// these events.
//
// Multi forwards resilience events to each member that implements the
// interface. Embed BaseResilienceObserver to opt in selectively.
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

// BaseResilienceObserver is a no-op ResilienceObserver for embedding.
type BaseResilienceObserver struct{}

// OnBreakerOpen implements ResilienceObserver.
func (BaseResilienceObserver) OnBreakerOpen(server int, at core.Time) {}

// OnBreakerProbe implements ResilienceObserver.
func (BaseResilienceObserver) OnBreakerProbe(server, task int, at core.Time) {}

// OnBreakerClose implements ResilienceObserver.
func (BaseResilienceObserver) OnBreakerClose(server int, at core.Time) {}

// OnRetryBudgetDrop implements ResilienceObserver.
func (BaseResilienceObserver) OnRetryBudgetDrop(task, attempts int, at core.Time) {}

// OnBreakerOpen implements ResilienceObserver, forwarding to members that
// observe resilience events.
func (m multi) OnBreakerOpen(server int, at core.Time) {
	for _, p := range m {
		if o, ok := p.(ResilienceObserver); ok {
			o.OnBreakerOpen(server, at)
		}
	}
}

// OnBreakerProbe implements ResilienceObserver.
func (m multi) OnBreakerProbe(server, task int, at core.Time) {
	for _, p := range m {
		if o, ok := p.(ResilienceObserver); ok {
			o.OnBreakerProbe(server, task, at)
		}
	}
}

// OnBreakerClose implements ResilienceObserver.
func (m multi) OnBreakerClose(server int, at core.Time) {
	for _, p := range m {
		if o, ok := p.(ResilienceObserver); ok {
			o.OnBreakerClose(server, at)
		}
	}
}

// OnRetryBudgetDrop implements ResilienceObserver.
func (m multi) OnRetryBudgetDrop(task, attempts int, at core.Time) {
	for _, p := range m {
		if o, ok := p.(ResilienceObserver); ok {
			o.OnRetryBudgetDrop(task, attempts, at)
		}
	}
}
