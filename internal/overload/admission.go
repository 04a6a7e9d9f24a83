package overload

import (
	"fmt"

	"flowsched/internal/core"
)

// Reason strings attached to rejected and shed tasks. OverloadMetrics
// aggregates by these, and the obs counters export them.
const (
	ReasonQueueBound = "queue-bound"
	ReasonDeadline   = "deadline"
)

// AdmissionPolicy decides, once per task at its arrival instant, whether the
// task enters the system at all. Rejected tasks are never dispatched: they
// carry no flow time and are excluded from Fmax (the goodput metrics report
// them separately).
//
// Admit runs on the simulator's hot path; implementations must not allocate
// or retain the view.
type AdmissionPolicy interface {
	Name() string
	// Admit returns ok=true to accept the task. On rejection, reason names
	// the rule that fired (one of the Reason constants for the built-ins).
	Admit(v *View, task core.Task) (ok bool, reason string)
}

// Budgeted is implemented by admission policies that promise a flow-time
// budget for admitted tasks. The engine (sim.Config.Overload) enforces it:
// any dispatch that
// would complete later than release + Budget() + proc is shed instead, so
// completed-task flow ≤ Budget() + p_max becomes a hard invariant
// (internal/audit's "deadline" check).
type Budgeted interface {
	Budget() core.Time
}

// AdmitAll accepts everything — the baseline that lets flow times grow
// without bound past λ*.
type AdmitAll struct{}

// Name implements AdmissionPolicy.
func (AdmitAll) Name() string { return "admit-all" }

// Admit implements AdmissionPolicy.
func (AdmitAll) Admit(*View, core.Task) (bool, string) { return true, "" }

// QueueBound rejects a task when every usable machine of its processing set
// is past its bound: queue length above MaxQueue (when set) or backlog —
// pending work ahead of the task — above MaxBacklog (when set). A machine
// must exceed every configured bound to count as overloaded; the task is
// rejected only when no usable eligible machine is below the bounds.
//
// With all eligible machines down the task is admitted: parking and failover
// (sim.Config.Plan semantics) own that case, not admission.
type QueueBound struct {
	MaxQueue   int       // reject threshold on per-server queue length; 0 = off
	MaxBacklog core.Time // reject threshold on per-server backlog; 0 = off
}

// Name implements AdmissionPolicy.
func (q QueueBound) Name() string {
	return fmt.Sprintf("queue-bound(len=%d,backlog=%v)", q.MaxQueue, q.MaxBacklog)
}

// validate rejects a bound-less QueueBound (a policy that can never fire is
// a configuration mistake, not a baseline) and negative thresholds.
func (q QueueBound) validate() error {
	if q.MaxQueue < 0 || q.MaxBacklog < 0 {
		return fmt.Errorf("overload: negative queue bound (len=%d, backlog=%v)", q.MaxQueue, q.MaxBacklog)
	}
	if q.MaxQueue == 0 && q.MaxBacklog == 0 {
		return fmt.Errorf("overload: queue-bound admission with no bound set (use AdmitAll for a no-op policy)")
	}
	return nil
}

// Admit implements AdmissionPolicy.
func (q QueueBound) Admit(v *View, task core.Task) (bool, string) {
	if q.MaxQueue <= 0 && q.MaxBacklog <= 0 {
		return true, ""
	}
	overloaded := true
	any := v.eachUsable(task.Set, func(j int) {
		if !overloaded {
			return
		}
		if q.MaxQueue > 0 && v.QueueLen[j] <= q.MaxQueue {
			overloaded = false
			return
		}
		if q.MaxBacklog > 0 && v.Backlog(j) <= q.MaxBacklog {
			overloaded = false
		}
	})
	if !any {
		return true, "" // whole set down: failover/parking decides, not admission
	}
	if overloaded {
		return false, ReasonQueueBound
	}
	return true, ""
}

// DeadlineAdmit rejects a task when its predicted flow time — the earliest
// finish over the usable machines of M_i, minus its release — exceeds the
// budget D. Because it also implements Budgeted, the engine enforces the
// prediction: admitted tasks that would still blow the budget at an actual
// dispatch (failover delays, gray slowdowns) are shed, so every completed
// task satisfies Fmax ≤ D + p_max.
type DeadlineAdmit struct {
	D core.Time
}

// Name implements AdmissionPolicy.
func (d DeadlineAdmit) Name() string { return fmt.Sprintf("deadline(D=%v)", d.D) }

// Budget implements Budgeted.
func (d DeadlineAdmit) Budget() core.Time { return d.D }

// Admit implements AdmissionPolicy.
func (d DeadlineAdmit) Admit(v *View, task core.Task) (bool, string) {
	best := core.Time(0)
	first := true
	any := v.eachUsable(task.Set, func(j int) {
		start := v.Completion[j]
		if v.Now > start {
			start = v.Now
		}
		if end := start + task.Proc; first || end < best {
			best = end
			first = false
		}
	})
	if !any {
		return true, "" // whole set down: parking decides
	}
	if best-v.Now > d.D {
		return false, ReasonDeadline
	}
	return true, ""
}
