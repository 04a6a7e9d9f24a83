// Package audit is the machine-checkable definition of "this schedule is
// correct": a single auditor that takes any (instance, schedule) pair — from
// the online algorithms, the simulator, a faulty run, or a JSON replay — and
// checks every structural invariant the paper's model imposes, returning
// structured violations instead of a bool so randomized soak runs (see
// internal/chaos) can shrink and report exactly what broke.
//
// Invariants checked, in order:
//
//	shape        instance/schedule/options arrays agree in length
//	assignment   assigned tasks have a real machine and a finite start;
//	             dropped tasks are unassigned (Machine −1)
//	release      no task starts before its release (σ_i ≥ r_i)
//	eligibility  every task runs on a machine of its processing set
//	completion   completion = FinishTime(start, proc) under the plan's
//	             gray-failure slowdowns (= start + proc when healthy), and
//	             matches the observed completions when provided
//	downtime     no execution interval overlaps a Down segment of the plan
//	overlap      executions on one machine do not overlap
//	lower-bound  Fmax ≥ offline.LowerBound — only when no task was dropped
//	             (the bound assumes all work is done); under elastic
//	             membership only its set-free part,
//	             offline.UnrestrictedLowerBound
//	fifo-equiv   FIFO ≡ EFT spot-check (Proposition 1) on unrestricted
//	             instances: both algorithms must report the same Fmax
//	disposition  every task is admitted ∨ rejected ∨ shed ∨ dropped exactly
//	             once; non-admitted tasks are unassigned (guarded runs)
//	deadline     completed-task flow ≤ D + p_max under a deadline-admission
//	             budget D (guarded runs)
//	membership   under an elastic membership log, every executed task ran on
//	             a machine of its dispatch-time effective set (elastic runs;
//	             replaces the static eligibility check)
//	hedge        hedged runs: every speculative copy targeted an in-range,
//	             dispatch-time-eligible server; a copy win matches the
//	             schedule's machine and start; on healthy plans all busy
//	             time splits into completed work + duplicate work
//	resilience   resilient runs: retry-budget conservation (issued + dropped
//	             = requested, drops ↔ BudgetDropped dispositions) and
//	             breaker-state legality — no final dispatch inside an open
//	             window, only probe dispatches inside a half-open window,
//	             breaker counters consistent with the recorded spans
package audit

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"flowsched/internal/core"
	"flowsched/internal/elastic"
	"flowsched/internal/faults"
	"flowsched/internal/obs"
	"flowsched/internal/offline"
	"flowsched/internal/resilience"
	"flowsched/internal/sched"
)

// Invariant names, one per check. Violation.Invariant always holds one of
// these (or InvShape for structural mismatches that abort the audit).
const (
	InvShape      = "shape"
	InvAssignment = "assignment"
	InvRelease    = "release"
	InvEligible   = "eligibility"
	InvCompletion = "completion"
	InvDowntime   = "downtime"
	InvOverlap    = "overlap"
	InvLowerBound = "lower-bound"
	InvFIFOEquiv  = "fifo-equiv"
	// InvDisposition: every task is admitted ∨ rejected ∨ shed ∨ dropped,
	// exactly once, and non-admitted tasks are unassigned.
	InvDisposition = "disposition"
	// InvDeadline: with a deadline-admission budget D, every completed task
	// has flow ≤ D + p_max (the guarantee the engine enforces).
	InvDeadline = "deadline"
	// InvMembership: under an elastic membership log, every executed task ran
	// on a machine inside its *effective* processing set at its dispatch
	// instant — the first k active machines walking the ring from the set's
	// origin (elastic.Effective, the same walk the engine routes with).
	InvMembership = "membership"
	// InvHedge: hedged-execution invariants (sim.Config.Hedge) — every
	// speculative copy targeted a server inside the task's processing set
	// (effective set under elastic membership) at the copy's dispatch
	// instant; a task reported won-by-copy was hedged and the schedule runs
	// it on the copy's server at or after the copy's dispatch; and, on plans
	// with no outages and no slowdowns, total busy time equals the completed
	// tasks' processing time plus the metrics' DuplicateWork — cancelled
	// copies never leak into flow or busy accounting.
	InvHedge = "hedge"
	// InvResilience: resilience invariants (sim.Config.Resilience) — the retry
	// budget conserves exactly (RetriesIssued + RetriesDropped ==
	// RetriesRequested, and the drop count matches the BudgetDropped
	// dispositions); and under circuit breakers every task's *final*
	// dispatch respects the recorded breaker spans: never strictly inside an
	// open window (open → half-open), and inside a half-open window
	// (half-open → end) only when the dispatch was a half-open probe. The
	// span-derived open/close counts must match the metrics counters.
	InvResilience = "resilience"
)

// Violation is one broken invariant. Task and Machine are −1 when the
// violation is not specific to a task or machine.
type Violation struct {
	Invariant string `json:"invariant"`
	Task      int    `json:"task"`
	Machine   int    `json:"machine"`
	Detail    string `json:"detail"`
}

func (v Violation) String() string {
	var b strings.Builder
	b.WriteString(v.Invariant)
	if v.Task >= 0 {
		fmt.Fprintf(&b, " task %d", v.Task)
	}
	if v.Machine >= 0 {
		fmt.Fprintf(&b, " M%d", v.Machine+1)
	}
	b.WriteString(": ")
	b.WriteString(v.Detail)
	return b.String()
}

// Options configures an audit. The zero value checks a fault-free schedule
// against every invariant.
type Options struct {
	// Plan is the fault plan the schedule was produced under; nil means
	// fault-free. With a plan, completions are slowdown-adjusted via
	// faults.FinishTime and executions must avoid Down segments.
	Plan *faults.Plan
	// Completions are observed completion instants (e.g. release + flow from
	// simulator metrics) cross-checked against the recomputed ones. Optional.
	Completions []core.Time
	// Dropped marks tasks the simulator gave up on; they must be unassigned
	// and are excluded from completion/flow reasoning. Optional.
	Dropped []bool
	// Overload supplies the dispositions of a guarded run
	// (a sim.Config.Overload): rejected/shed tasks are held
	// to the same unassigned contract as dropped ones, disposition
	// exclusivity is checked, and — when Deadline is set — the admitted-task
	// flow bound Fmax ≤ Deadline + p_max. Optional.
	Overload *OverloadInfo
	// Membership supplies the membership log of an elastic run
	// (a sim.Config.Elastic): the static eligibility check is
	// replaced by the dispatch-time effective-set check (InvMembership), the
	// lower bound keeps only its set-free terms (effective sets can lie
	// outside the static ones), and the FIFO ≡ EFT spot-check is skipped
	// (the proposition assumes a fixed machine count). Optional.
	Membership *MembershipInfo
	// Hedge supplies the per-task hedge record of a hedged run
	// (a sim.Config.Hedge): speculative-copy eligibility, copy-win
	// consistency and the busy-time accounting identity are checked
	// (InvHedge). Optional.
	Hedge *HedgeInfo
	// Resilience supplies the retry-budget ledger and breaker history of a
	// resilient run (a sim.Config.Resilience): budget conservation
	// and breaker-state dispatch legality are checked (InvResilience).
	// Optional.
	Resilience *ResilienceInfo
	// SkipLowerBound disables the Fmax ≥ offline.LowerBound check, one sweep
	// over the tasks keeping a running minimum per distinct set:
	// O(n·c + |sets|²·m), c the number of distinct sets containing a task's
	// set.
	SkipLowerBound bool
	// SkipFIFOEquiv disables the Proposition 1 spot-check (it re-runs both
	// FIFO and EFT over the instance).
	SkipFIFOEquiv bool
	// MaxViolations truncates the report; 0 means 64.
	MaxViolations int
	// Recorder, when set, is the flight recorder that watched the audited
	// run: every violation naming a task gets that task's raw event history
	// attached to the report (Report.Evidence), so a soak failure explains
	// itself without a re-run. Optional.
	Recorder *obs.FlightRecorder
}

// OverloadInfo carries the overload-control dispositions of a guarded run
// into the audit.
type OverloadInfo struct {
	// Rejected marks tasks turned away by admission control. Optional.
	Rejected []bool
	// Shed marks tasks abandoned mid-run by shedding or deadline
	// enforcement. Optional.
	Shed []bool
	// Deadline is the admission budget D of a Budgeted policy
	// (e.g. DeadlineAdmit); > 0 enables the Fmax ≤ D + p_max check over
	// completed tasks.
	Deadline core.Time
}

// MembershipInfo carries an elastic run's membership history into the audit:
// the replayable log (sim.ElasticMetrics.Membership) and each task's final
// dispatch instant (sim.ElasticMetrics.Dispatched; NaN for tasks that never
// dispatched). Both come straight from the simulator's metrics.
type MembershipInfo struct {
	Membership *elastic.Membership
	Dispatched []core.Time
}

// HedgeInfo carries a hedged run's per-task hedge record into the audit.
// All of it comes straight from sim.ElasticMetrics.
type HedgeInfo struct {
	// Hedged marks tasks for which a speculative copy was dispatched.
	Hedged []bool
	// CopyServer is the copy's server per hedged task (undefined otherwise).
	CopyServer []int
	// CopyAt is the copy's dispatch instant per hedged task.
	CopyAt core.Times
	// WonByCopy marks hedged tasks whose speculative copy won the race.
	WonByCopy []bool
	// Busy is the per-server busy time (sim.ElasticMetrics.Busy). Optional;
	// enables the aggregate accounting identity on healthy plans.
	Busy []core.Time
	// DuplicateWork is the busy time burned on losing attempts.
	DuplicateWork core.Time
}

// ResilienceInfo carries a resilient run's retry-budget ledger and breaker
// history into the audit. All of it comes straight from sim.ElasticMetrics.
type ResilienceInfo struct {
	// RetriesRequested/Issued/Dropped is the budget ledger; the conservation
	// equation Issued + Dropped == Requested must hold exactly.
	RetriesRequested int
	RetriesIssued    int
	RetriesDropped   int
	// BudgetDropped marks tasks whose retry the budget refused; the count
	// must equal RetriesDropped (each task's first refused retry settles its
	// disposition). Optional when no budget was configured.
	BudgetDropped []bool
	// Spans is the breaker open-episode history
	// (sim.ElasticMetrics.BreakerSpans); nil or empty when no breaker was
	// configured or none ever opened.
	Spans []resilience.Span
	// ProbeDispatch marks tasks whose final dispatch was a half-open probe.
	// Required (with Dispatched) when Spans is non-empty.
	ProbeDispatch []bool
	// Dispatched is each task's final dispatch instant
	// (sim.ElasticMetrics.Dispatched; NaN = never dispatched). Required when
	// Spans is non-empty.
	Dispatched []core.Time
	// BreakerOpens/BreakerCloses are the metrics counters, cross-checked
	// against the span history.
	BreakerOpens  int
	BreakerCloses int
}

// Report is the audit outcome: empty Violations means every invariant held.
type Report struct {
	Violations []Violation `json:"violations"`
	Truncated  bool        `json:"truncated,omitempty"`
	// Evidence maps each task named by a violation to its raw event history
	// from the run's flight recorder. Populated only when Options.Recorder
	// was set and the recorder held events for the task.
	Evidence map[int][]obs.FlightEvent `json:"evidence,omitempty"`
}

// Ok reports whether the audit found no violations.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// Err returns nil for a clean report, or an error naming the first
// violation and the total count.
func (r *Report) Err() error {
	if r.Ok() {
		return nil
	}
	return fmt.Errorf("audit: %d violation(s); first: %s", len(r.Violations), r.Violations[0])
}

func (r *Report) String() string {
	if r.Ok() {
		return "audit: ok"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %d violation(s)", len(r.Violations))
	if r.Truncated {
		b.WriteString(" (truncated)")
	}
	for _, v := range r.Violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return b.String()
}

// tol is the audit tolerance: absolute for small values, relative for large
// ones, matching the float64 arithmetic of the simulator.
func tol(x core.Time) core.Time { return 1e-9 * (1 + math.Abs(x)) }

// Audit checks every invariant of the schedule against the instance under
// the given options and returns the structured report. It never modifies
// its inputs. With Options.Recorder set, violations naming a task carry the
// task's flight-recorder event history in Report.Evidence.
func Audit(inst *core.Instance, s *core.Schedule, opts Options) *Report {
	r := auditInvariants(inst, s, opts)
	if opts.Recorder != nil {
		for _, v := range r.Violations {
			if v.Task < 0 {
				continue
			}
			if _, seen := r.Evidence[v.Task]; seen {
				continue
			}
			if evs := opts.Recorder.TaskEvents(v.Task); len(evs) > 0 {
				if r.Evidence == nil {
					r.Evidence = make(map[int][]obs.FlightEvent)
				}
				r.Evidence[v.Task] = evs
			}
		}
	}
	return r
}

// auditInvariants runs the invariant checks and builds the raw report. One
// pass over the tasks makes every per-task check and, through overlapScan,
// the overlap check; the overlaps it finds are added after the per-task
// violations, in machine order, as a per-machine sort would list them.
// Then come the hedge and resilience checks, the certified lower bound and
// the Proposition 1 spot-check. A clean fault-free audit allocates nothing
// per task and sorts nothing.
func auditInvariants(inst *core.Instance, s *core.Schedule, opts Options) *Report {
	r := &Report{}
	limit := opts.MaxViolations
	if limit <= 0 {
		limit = 64
	}
	add := func(v Violation) bool {
		if len(r.Violations) >= limit {
			r.Truncated = true
			return false
		}
		r.Violations = append(r.Violations, v)
		return true
	}

	n := inst.N()
	m := inst.M
	if len(s.Machine) != n || len(s.Start) != n {
		add(Violation{Invariant: InvShape, Task: -1, Machine: -1,
			Detail: fmt.Sprintf("schedule for %d/%d tasks, instance has %d", len(s.Machine), len(s.Start), n)})
		return r
	}
	if opts.Completions != nil && len(opts.Completions) != n {
		add(Violation{Invariant: InvShape, Task: -1, Machine: -1,
			Detail: fmt.Sprintf("%d observed completions for %d tasks", len(opts.Completions), n)})
		return r
	}
	if opts.Dropped != nil && len(opts.Dropped) != n {
		add(Violation{Invariant: InvShape, Task: -1, Machine: -1,
			Detail: fmt.Sprintf("%d dropped flags for %d tasks", len(opts.Dropped), n)})
		return r
	}
	var rejected, shed []bool
	var deadline core.Time
	if opts.Overload != nil {
		rejected, shed, deadline = opts.Overload.Rejected, opts.Overload.Shed, opts.Overload.Deadline
		if rejected != nil && len(rejected) != n {
			add(Violation{Invariant: InvShape, Task: -1, Machine: -1,
				Detail: fmt.Sprintf("%d rejected flags for %d tasks", len(rejected), n)})
			return r
		}
		if shed != nil && len(shed) != n {
			add(Violation{Invariant: InvShape, Task: -1, Machine: -1,
				Detail: fmt.Sprintf("%d shed flags for %d tasks", len(shed), n)})
			return r
		}
	}

	var ms *elastic.Membership
	var dispatched []core.Time
	if opts.Membership != nil {
		ms, dispatched = opts.Membership.Membership, opts.Membership.Dispatched
		if ms == nil || dispatched == nil {
			add(Violation{Invariant: InvShape, Task: -1, Machine: -1,
				Detail: "membership info needs both the log and the dispatch instants"})
			return r
		}
		if len(dispatched) != n {
			add(Violation{Invariant: InvShape, Task: -1, Machine: -1,
				Detail: fmt.Sprintf("%d dispatch instants for %d tasks", len(dispatched), n)})
			return r
		}
		if ms.Capacity != m {
			add(Violation{Invariant: InvShape, Task: -1, Machine: -1,
				Detail: fmt.Sprintf("membership log for %d slots, instance has %d machines", ms.Capacity, m)})
			return r
		}
	}

	if opts.Hedge != nil {
		h := opts.Hedge
		if len(h.Hedged) != n || len(h.CopyServer) != n || len(h.CopyAt) != n || len(h.WonByCopy) != n {
			add(Violation{Invariant: InvShape, Task: -1, Machine: -1,
				Detail: fmt.Sprintf("hedge record %d/%d/%d/%d entries for %d tasks",
					len(h.Hedged), len(h.CopyServer), len(h.CopyAt), len(h.WonByCopy), n)})
			return r
		}
		if h.Busy != nil && len(h.Busy) != m {
			add(Violation{Invariant: InvShape, Task: -1, Machine: -1,
				Detail: fmt.Sprintf("%d busy entries for %d machines", len(h.Busy), m)})
			return r
		}
	}

	if opts.Resilience != nil {
		ri := opts.Resilience
		if ri.BudgetDropped != nil && len(ri.BudgetDropped) != n {
			add(Violation{Invariant: InvShape, Task: -1, Machine: -1,
				Detail: fmt.Sprintf("%d budget-dropped flags for %d tasks", len(ri.BudgetDropped), n)})
			return r
		}
		if len(ri.Spans) > 0 {
			if len(ri.ProbeDispatch) != n || len(ri.Dispatched) != n {
				add(Violation{Invariant: InvShape, Task: -1, Machine: -1,
					Detail: fmt.Sprintf("breaker spans present but %d probe flags / %d dispatch instants for %d tasks",
						len(ri.ProbeDispatch), len(ri.Dispatched), n)})
				return r
			}
			for _, sp := range ri.Spans {
				if sp.Server < 0 || sp.Server >= m {
					add(Violation{Invariant: InvShape, Task: -1, Machine: -1,
						Detail: fmt.Sprintf("breaker span for server %d out of range [0,%d)", sp.Server, m)})
					return r
				}
			}
		}
	}

	var segs [][]faults.Slowdown
	var outages []faults.Outage
	if opts.Plan != nil {
		if opts.Plan.M != m {
			add(Violation{Invariant: InvShape, Task: -1, Machine: -1,
				Detail: fmt.Sprintf("fault plan for %d servers, instance has %d machines", opts.Plan.M, m)})
			return r
		}
		norm := opts.Plan.Normalize()
		segs = norm.ServerSlowdowns()
		outages = norm.Outages
	}

	dropped := func(i int) bool { return opts.Dropped != nil && opts.Dropped[i] }
	// excluded tasks never (finally) completed: dropped by the retry policy,
	// rejected by admission or shed by overload control. They share the
	// unassigned contract and are excluded from flow reasoning.
	excluded := func(i int) (bool, string) {
		kinds := 0
		name := ""
		if dropped(i) {
			kinds, name = kinds+1, "dropped"
		}
		if rejected != nil && rejected[i] {
			kinds, name = kinds+1, "rejected"
		}
		if shed != nil && shed[i] {
			kinds, name = kinds+1, "shed"
		}
		if kinds > 1 {
			name = "multiple-dispositions"
		}
		return kinds > 0, name
	}
	var pmax core.Time
	for i := range inst.Tasks {
		if p := inst.Tasks[i].Proc; p > pmax {
			pmax = p
		}
	}

	// Per-task checks, the overlap check riding along.
	scan := newOverlapScan(m)
	anyDropped := false
	anyBroken := false // an unassigned/unfinishable task poisons Fmax reasoning
	var fmax core.Time
	for i := range inst.Tasks {
		task := &inst.Tasks[i]
		j := s.Machine[i]
		if out, kind := excluded(i); out {
			anyDropped = true
			if kind == "multiple-dispositions" {
				if !add(Violation{Invariant: InvDisposition, Task: i, Machine: -1,
					Detail: "task carries more than one of dropped/rejected/shed"}) {
					return r
				}
			}
			if j != -1 {
				anyBroken = true
				if !add(Violation{Invariant: InvAssignment, Task: i, Machine: j,
					Detail: kind + " task is assigned to a machine"}) {
					return r
				}
			}
			continue
		}
		if j < 0 || j >= m {
			anyBroken = true
			if !add(Violation{Invariant: InvAssignment, Task: i, Machine: -1,
				Detail: fmt.Sprintf("machine %d out of range [0,%d)", j, m)}) {
				return r
			}
			continue
		}
		start := s.Start[i]
		if math.IsNaN(start) || math.IsInf(start, 0) {
			anyBroken = true
			if !add(Violation{Invariant: InvAssignment, Task: i, Machine: j,
				Detail: fmt.Sprintf("invalid start time %v", start)}) {
				return r
			}
			continue
		}
		if start < task.Release-tol(task.Release) {
			if !add(Violation{Invariant: InvRelease, Task: i, Machine: j,
				Detail: fmt.Sprintf("starts at %v before release %v", start, task.Release)}) {
				return r
			}
		}
		if ms != nil {
			// Elastic runs route on the dispatch-time effective set, not the
			// static one; re-derive it from the log with the engine's own walk.
			at := dispatched[i]
			switch {
			case math.IsNaN(at):
				if !add(Violation{Invariant: InvMembership, Task: i, Machine: j,
					Detail: "executed task has no recorded dispatch instant"}) {
					return r
				}
			case !ms.Eligible(task.Set, at, j):
				if !add(Violation{Invariant: InvMembership, Task: i, Machine: j,
					Detail: fmt.Sprintf("machine outside the effective set of %v at dispatch t=%v (members %d)",
						task.Set, at, ms.MembersAt(at))}) {
					return r
				}
			}
		} else if !inSet(task.Set, j) {
			if !add(Violation{Invariant: InvEligible, Task: i, Machine: j,
				Detail: fmt.Sprintf("machine not in processing set %v", task.Set)}) {
				return r
			}
		}
		comp := finish(segs, j, start, task.Proc)
		if opts.Completions != nil {
			if obs := opts.Completions[i]; math.Abs(obs-comp) > tol(comp) {
				if !add(Violation{Invariant: InvCompletion, Task: i, Machine: j,
					Detail: fmt.Sprintf("observed completion %v, expected %v (start %v + proc %v%s)",
						obs, comp, start, task.Proc, slowNote(segs, j))}) {
					return r
				}
			}
		}
		for _, o := range outages {
			if o.Server != j {
				continue
			}
			if start < o.Until-tol(o.Until) && comp > o.From+tol(o.From) {
				if !add(Violation{Invariant: InvDowntime, Task: i, Machine: j,
					Detail: fmt.Sprintf("executes on [%v,%v) overlapping outage [%v,%v)", start, comp, o.From, o.Until)}) {
					return r
				}
			}
		}
		if f := comp - task.Release; f > fmax {
			fmax = f
		}
		if deadline > 0 {
			// The enforced admitted-task SLO: any completed task's flow is at
			// most the admission budget plus one (maximal) processing time.
			if f := comp - task.Release; f > deadline+pmax+tol(deadline+pmax) {
				if !add(Violation{Invariant: InvDeadline, Task: i, Machine: j,
					Detail: fmt.Sprintf("flow %v exceeds admitted budget %v + p_max %v", f, deadline, pmax)}) {
					return r
				}
			}
		}
		scan.next(i, j, start, comp)
	}
	if !scan.report(inst, s, segs, excluded, add) {
		return r
	}

	if opts.Hedge != nil {
		if !auditHedge(inst, s, opts.Hedge, ms, segs, outages, excluded, add) {
			return r
		}
	}

	if opts.Resilience != nil {
		if !auditResilience(inst, s, opts.Resilience, add) {
			return r
		}
	}

	// Fmax ≥ LB holds for ANY feasible schedule that completes all work —
	// faults only delay completions — so it is skipped only when tasks were
	// dropped (work removed) or the schedule is structurally broken. Elastic
	// runs may place a task outside its static set, which voids the per-set
	// terms; p_max and the m-machine term still hold on the m slots.
	if !opts.SkipLowerBound && !anyDropped && !anyBroken && n > 0 {
		var lb core.Time
		if ms != nil {
			lb = offline.UnrestrictedLowerBound(inst)
		} else {
			lb = offline.LowerBound(inst)
		}
		if fmax < lb-tol(lb) {
			add(Violation{Invariant: InvLowerBound, Task: -1, Machine: -1,
				Detail: fmt.Sprintf("Fmax %v below offline lower bound %v", fmax, lb)})
		}
	}

	// Proposition 1 spot-check: on unrestricted instances FIFO and EFT-Min
	// must agree on Fmax. This audits the instance/algorithm pair rather
	// than the given schedule — a canary that the equivalence the paper
	// proves still holds on this workload shape. The instance is validated
	// once, and both schedulers run without their own checks.
	if !opts.SkipFIFOEquiv && opts.Membership == nil && n > 0 && unrestricted(inst) {
		eft, fifo := sched.NewEFT(sched.MinTie{}), &sched.FIFO{Tie: sched.MinTie{}}
		if err := inst.Validate(); err != nil {
			add(Violation{Invariant: InvFIFOEquiv, Task: -1, Machine: -1,
				Detail: fmt.Sprintf("spot-check failed to run: eft=%s: %v fifo=%s: %v", eft.Name(), err, fifo.Name(), err)})
		} else {
			ef, ff := sched.RunOnline(eft, inst).MaxFlow(), fifo.RunUnchecked(inst).MaxFlow()
			if math.Abs(ef-ff) > tol(ef) {
				add(Violation{Invariant: InvFIFOEquiv, Task: -1, Machine: -1,
					Detail: fmt.Sprintf("EFT Fmax %v ≠ FIFO Fmax %v (Proposition 1)", ef, ff)})
			}
		}
	}
	return r
}

// auditHedge runs the hedged-execution invariants (InvHedge). It reports
// false when the violation limit was hit mid-scan.
func auditHedge(inst *core.Instance, s *core.Schedule, h *HedgeInfo,
	ms *elastic.Membership, segs [][]faults.Slowdown, outages []faults.Outage,
	excluded func(int) (bool, string), add func(Violation) bool) bool {
	m := inst.M
	for i := range inst.Tasks {
		task := &inst.Tasks[i]
		if !h.Hedged[i] {
			if h.WonByCopy[i] {
				if !add(Violation{Invariant: InvHedge, Task: i, Machine: -1,
					Detail: "won by copy but never hedged"}) {
					return false
				}
			}
			continue
		}
		cj := h.CopyServer[i]
		if cj < 0 || cj >= m {
			if !add(Violation{Invariant: InvHedge, Task: i, Machine: -1,
				Detail: fmt.Sprintf("copy server %d out of range [0,%d)", cj, m)}) {
				return false
			}
			continue
		}
		at := h.CopyAt[i]
		// The copy's server must have been eligible when the copy was issued:
		// inside the dispatch-time effective set under elastic membership,
		// inside the static processing set otherwise.
		if ms != nil {
			if !ms.Eligible(task.Set, at, cj) {
				if !add(Violation{Invariant: InvHedge, Task: i, Machine: cj,
					Detail: fmt.Sprintf("copy server outside the effective set of %v at hedge t=%v (members %d)",
						task.Set, at, ms.MembersAt(at))}) {
					return false
				}
			}
		} else if !task.Eligible(cj) {
			if !add(Violation{Invariant: InvHedge, Task: i, Machine: cj,
				Detail: fmt.Sprintf("copy server not in processing set %v", task.Set)}) {
				return false
			}
		}
		if h.WonByCopy[i] {
			if out, kind := excluded(i); out {
				if !add(Violation{Invariant: InvHedge, Task: i, Machine: cj,
					Detail: "won by copy yet " + kind + " — a cancelled attempt was counted as the effective completion"}) {
					return false
				}
				continue
			}
			if s.Machine[i] != cj {
				if !add(Violation{Invariant: InvHedge, Task: i, Machine: s.Machine[i],
					Detail: fmt.Sprintf("copy on M%d won but the schedule runs the task on machine %d", cj+1, s.Machine[i])}) {
					return false
				}
				continue
			}
			if s.Machine[i] == cj && s.Start[i] < at-tol(at) {
				if !add(Violation{Invariant: InvHedge, Task: i, Machine: cj,
					Detail: fmt.Sprintf("copy dispatched at %v but starts at %v", at, s.Start[i])}) {
					return false
				}
			}
		}
	}

	// Busy-time accounting identity. Only on plans with no outages and no
	// slowdowns: every completed task then contributes exactly its processing
	// time, cancelled copies reclaim theirs, and losing attempts burn
	// DuplicateWork — Σ_j Busy[j] = Σ_{completed} p_i + DuplicateWork.
	if h.Busy != nil && segs == nil && len(outages) == 0 {
		var total, work core.Time
		for _, b := range h.Busy {
			total += b
		}
		for i := range inst.Tasks {
			if out, _ := excluded(i); out || s.Machine[i] < 0 || s.Machine[i] >= m {
				continue
			}
			work += inst.Tasks[i].Proc
		}
		want := work + h.DuplicateWork
		if math.Abs(total-want) > tol(want) {
			if !add(Violation{Invariant: InvHedge, Task: -1, Machine: -1,
				Detail: fmt.Sprintf("busy time %v ≠ completed work %v + duplicate work %v — cancelled or duplicate attempts leaked into the accounting",
					total, work, h.DuplicateWork)}) {
				return false
			}
		}
	}
	return true
}

// auditResilience runs the resilience invariants (InvResilience): exact
// retry-budget conservation and breaker-state dispatch legality. It reports
// false when the violation limit was hit mid-scan.
func auditResilience(inst *core.Instance, s *core.Schedule, ri *ResilienceInfo,
	add func(Violation) bool) bool {
	// Budget conservation is exact integer arithmetic — no tolerance.
	if ri.RetriesIssued+ri.RetriesDropped != ri.RetriesRequested {
		if !add(Violation{Invariant: InvResilience, Task: -1, Machine: -1,
			Detail: fmt.Sprintf("retry budget leaks: issued %d + dropped %d ≠ requested %d",
				ri.RetriesIssued, ri.RetriesDropped, ri.RetriesRequested)}) {
			return false
		}
	}
	if ri.BudgetDropped != nil {
		bd := 0
		for _, b := range ri.BudgetDropped {
			if b {
				bd++
			}
		}
		if bd != ri.RetriesDropped {
			if !add(Violation{Invariant: InvResilience, Task: -1, Machine: -1,
				Detail: fmt.Sprintf("%d budget-dropped dispositions for %d dropped retries", bd, ri.RetriesDropped)}) {
				return false
			}
		}
	}

	// Span-derived counters must match the metrics counters.
	closes := 0
	for _, sp := range ri.Spans {
		if sp.Closed {
			closes++
		}
	}
	if ri.BreakerOpens != len(ri.Spans) {
		if !add(Violation{Invariant: InvResilience, Task: -1, Machine: -1,
			Detail: fmt.Sprintf("BreakerOpens %d but %d recorded spans", ri.BreakerOpens, len(ri.Spans))}) {
			return false
		}
	}
	if ri.BreakerCloses != closes {
		if !add(Violation{Invariant: InvResilience, Task: -1, Machine: -1,
			Detail: fmt.Sprintf("BreakerCloses %d but %d spans closed by probe success", ri.BreakerCloses, closes)}) {
			return false
		}
	}
	if len(ri.Spans) == 0 {
		return true
	}

	// Breaker legality per executed task: its final dispatch instant must
	// not fall strictly inside an open window, and inside a half-open window
	// only as a probe. NaN span bounds mean "until the end of the run".
	// Strict comparisons on both ends keep same-instant transitions (an open
	// booked by the completion that tripped it, a close waking parked work)
	// out of the violation set — those orderings are legal by construction.
	until := func(t core.Time) core.Time {
		if math.IsNaN(t) {
			return core.Time(math.Inf(1))
		}
		return t
	}
	m := inst.M
	for i := range inst.Tasks {
		j := s.Machine[i]
		if j < 0 || j >= m {
			continue // never executed: no dispatch to check
		}
		d := ri.Dispatched[i]
		if math.IsNaN(d) {
			if !add(Violation{Invariant: InvResilience, Task: i, Machine: j,
				Detail: "executed task has no recorded dispatch instant"}) {
				return false
			}
			continue
		}
		for _, sp := range ri.Spans {
			if sp.Server != j {
				continue
			}
			halfOpen := until(sp.HalfOpenAt)
			end := until(sp.EndedAt)
			if d > sp.OpenedAt && d < halfOpen {
				if !add(Violation{Invariant: InvResilience, Task: i, Machine: j,
					Detail: fmt.Sprintf("dispatched at %v inside open breaker window [%v, %v)", d, sp.OpenedAt, sp.HalfOpenAt)}) {
					return false
				}
			} else if d > halfOpen && d < end && !ri.ProbeDispatch[i] {
				if !add(Violation{Invariant: InvResilience, Task: i, Machine: j,
					Detail: fmt.Sprintf("non-probe dispatch at %v inside half-open breaker window [%v, %v)", d, sp.HalfOpenAt, sp.EndedAt)}) {
					return false
				}
			}
		}
	}
	return true
}

// finish is a task's completion: start + proc, or the slowdown-adjusted
// faults.FinishTime under a plan's gray failures.
func finish(segs [][]faults.Slowdown, j int, start, proc core.Time) core.Time {
	if segs != nil {
		return faults.FinishTime(segs[j], start, proc)
	}
	return start + proc
}

// inSet is core.ProcSet.Contains, the same binary search written out
// without sort.SearchInts's closure.
func inSet(set core.ProcSet, j int) bool {
	if set == nil {
		return true
	}
	lo, hi := 0, len(set)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if set[h] < j {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo < len(set) && set[lo] == j
}

// overlapScan is the overlap check in one pass over the tasks. An
// immediate-dispatch schedule without faults runs each machine's tasks in
// task order, so each execution is checked against its machine's
// predecessor when the pass reaches it, and the overlaps found wait in found
// until the per-task checks are done. A machine whose starts fail to
// increase strictly in task order (retries, handoffs and hedge copies can
// reorder a machine; equal starts too, as sort.Slice does not keep ties in
// order) falls back to sorting its executions by start, which the report
// collects in a second pass. Either way the overlaps come out in machine
// order, each machine's by start, as a sort of every machine lists them.
type overlapScan struct {
	tail     []execTail  // per machine: the last execution in task order
	found    []Violation // overlaps found in the pass, in task order
	fallback int         // machines that need the sorted scan
}

type execTail struct {
	task       int // −1 before the machine's first execution
	start, end core.Time
	sorted     bool // starts fail to increase strictly: sort the machine
}

func newOverlapScan(m int) *overlapScan {
	o := &overlapScan{tail: make([]execTail, m)}
	for j := range o.tail {
		o.tail[j].task = -1
	}
	return o
}

// next records task i's execution [start, end) on machine j.
func (o *overlapScan) next(i, j int, start, end core.Time) {
	t := &o.tail[j]
	switch {
	case t.sorted:
		return
	case t.task >= 0 && start <= t.start:
		t.sorted = true
		o.fallback++
		return
	case t.task >= 0 && start < t.end-tol(t.end):
		o.found = append(o.found, overlapViolation(i, j, start, t.task, t.end))
	}
	t.task, t.start, t.end = i, start, end
}

// report adds the overlaps in machine order. A machine that fell back has
// its executions collected again — the tasks the per-task checks let
// through, with the same completions — and sorted by start; what found
// holds for it is dropped. The collection is one slice of task ids, sized
// by a counting pass and grouped by machine in task order. It reports false
// when the violation limit was hit.
func (o *overlapScan) report(inst *core.Instance, s *core.Schedule, segs [][]faults.Slowdown,
	excluded func(int) (bool, string), add func(Violation) bool) bool {
	if len(o.found) == 0 && o.fallback == 0 {
		return true
	}
	// from[j] ends up where machine j's ids start, and from[j+1] where they
	// end: it counts each machine's executions, sums them into segment
	// ends, and the fill, walking the tasks backwards, steps each end down
	// to its segment's start.
	var ids, from []int
	if o.fallback > 0 {
		fallbackMachine := func(i int) int {
			j := s.Machine[i]
			if j < 0 || j >= len(o.tail) || !o.tail[j].sorted {
				return -1
			}
			start := s.Start[i]
			if out, _ := excluded(i); out || math.IsNaN(start) || math.IsInf(start, 0) {
				return -1
			}
			return j
		}
		from = make([]int, len(o.tail)+1)
		for i := range inst.Tasks {
			if j := fallbackMachine(i); j >= 0 {
				from[j]++
			}
		}
		for j := 1; j <= len(o.tail); j++ {
			from[j] += from[j-1]
		}
		ids = make([]int, from[len(o.tail)])
		for i := len(inst.Tasks) - 1; i >= 0; i-- {
			if j := fallbackMachine(i); j >= 0 {
				from[j]--
				ids[from[j]] = i
			}
		}
	}
	end := func(j, i int) core.Time { return finish(segs, j, s.Start[i], inst.Tasks[i].Proc) }
	// A stable sort by machine keeps each machine's overlaps in task order,
	// which is start order on a machine that did not fall back.
	sort.SliceStable(o.found, func(a, b int) bool { return o.found[a].Machine < o.found[b].Machine })
	k := 0
	for j, t := range o.tail {
		if t.sorted && !sortedOverlaps(j, ids[from[j]:from[j+1]], s.Start, end, add) {
			return false
		}
		for ; k < len(o.found) && o.found[k].Machine == j; k++ {
			if !t.sorted && !add(o.found[k]) {
				return false
			}
		}
	}
	return true
}

// sortedOverlaps sorts ids, the tasks machine j executes, by start and
// checks each against the one before it, which ends at end(j, id).
func sortedOverlaps(j int, ids []int, start []core.Time, end func(j, i int) core.Time, add func(Violation) bool) bool {
	sort.Slice(ids, func(a, b int) bool { return start[ids[a]] < start[ids[b]] })
	for x := 1; x < len(ids); x++ {
		prev, cur := ids[x-1], ids[x]
		if prevEnd := end(j, prev); start[cur] < prevEnd-tol(prevEnd) {
			if !add(overlapViolation(cur, j, start[cur], prev, prevEnd)) {
				return false
			}
		}
	}
	return true
}

func overlapViolation(task, j int, start core.Time, prev int, prevEnd core.Time) Violation {
	return Violation{Invariant: InvOverlap, Task: task, Machine: j,
		Detail: fmt.Sprintf("starts at %v while task %d runs until %v", start, prev, prevEnd)}
}

func slowNote(segs [][]faults.Slowdown, j int) string {
	if segs == nil || len(segs[j]) == 0 {
		return ""
	}
	return fmt.Sprintf(", %d slowdown segment(s)", len(segs[j]))
}

// unrestricted reports whether every task may run anywhere — the domain of
// the paper's FIFO algorithm (nil set or the full interval).
func unrestricted(inst *core.Instance) bool {
	full := core.Interval(0, inst.M-1)
	for _, t := range inst.Tasks {
		if t.Set != nil && !t.Set.Equal(full) {
			return false
		}
	}
	return true
}
