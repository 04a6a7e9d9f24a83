package sim

import (
	"flowsched/internal/core"
	"flowsched/internal/obs"
	"flowsched/internal/overload"
)

// OverloadMetrics extends FaultMetrics with the overload-control observables
// of a guarded run. The disposition slices are nil when the run had no
// overload config (a nil Config.Overload): every task was admitted and the
// struct carries exactly FaultMetrics.
type OverloadMetrics struct {
	FaultMetrics
	// Rejected marks tasks the admission policy turned away at arrival; they
	// were never dispatched, carry Flow 0 and are unassigned (Machine −1).
	Rejected []bool
	// Shed marks tasks dropped mid-run by the shedder or the deadline
	// enforcement; their Flow measures release → shed instant.
	Shed []bool
	// Reason records, per rejected or shed task, the rule that fired
	// (overload.ReasonQueueBound, overload.ReasonDeadline, "shed-oldest", …).
	Reason []string
	// Ejections / Readmissions count outlier-ejector transitions.
	Ejections    int
	Readmissions int
	// Brownouts counts rising edges of the SLO guard's brownout signal.
	Brownouts int
}

// RejectedCount returns the number of admission-rejected tasks.
func (m *OverloadMetrics) RejectedCount() int { return countTrue(m.Rejected) }

// ShedCount returns the number of tasks shed mid-run.
func (m *OverloadMetrics) ShedCount() int { return countTrue(m.Shed) }

// excluded reports whether task i never (finally) completed: rejected, shed
// or dropped by the retry policy.
func (m *OverloadMetrics) excluded(i int) bool {
	if m.Dropped[i] {
		return true
	}
	if m.Rejected != nil && m.Rejected[i] {
		return true
	}
	if m.Shed != nil && m.Shed[i] {
		return true
	}
	return false
}

// CompletedCount returns the number of tasks that finally completed.
func (m *OverloadMetrics) CompletedCount() int {
	n := len(m.Flows)
	return n - m.DroppedCount() - m.RejectedCount() - m.ShedCount()
}

// Goodput returns the fraction of offered tasks that completed.
func (m *OverloadMetrics) Goodput() float64 {
	if len(m.Flows) == 0 {
		return 0
	}
	return float64(m.CompletedCount()) / float64(len(m.Flows))
}

// AdmittedMaxFlow returns Fmax over completed tasks only — the bound the
// admission policy actually promises (rejected/shed/dropped tasks are
// accounted through Goodput, not flow).
func (m *OverloadMetrics) AdmittedMaxFlow() core.Time {
	var mx core.Time
	for i, f := range m.Flows {
		if !m.excluded(i) && f > mx {
			mx = f
		}
	}
	return mx
}

// AdmittedFlows returns a fresh slice of the completed tasks' flow times
// (for quantile summaries).
func (m *OverloadMetrics) AdmittedFlows() []core.Time {
	out := make([]core.Time, 0, len(m.Flows))
	for i, f := range m.Flows {
		if !m.excluded(i) {
			out = append(out, f)
		}
	}
	return out
}

// ovRun is the engine-side runtime of an overload config: the live view
// handed to admission policies, the cached Budgeted bound, the optional
// observer side of the probe, and scratch space for shedding. It exists
// only when a config is present, so the disabled path allocates nothing.
type ovRun struct {
	cfg        *overload.Config
	view       overload.View
	op         obs.OverloadObserver
	budget     core.Time
	brown      bool
	cands      []overload.Candidate
	ejBuf      core.ProcSet
	shedReason string // Policy.Reason(), cached once per run (it concatenates)
}
