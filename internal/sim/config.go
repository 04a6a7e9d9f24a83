package sim

import (
	"flowsched/internal/elastic"
	"flowsched/internal/faults"
	"flowsched/internal/hedge"
	"flowsched/internal/obs"
	"flowsched/internal/overload"
	"flowsched/internal/resilience"
)

// Config selects the layers of one engine run (Arena.Run). Each field arms
// one layer; a nil field (a zero Retry) leaves that layer off, and a run
// whose Config.X is nil is byte-identical to the same run without layer X:
// identical schedules and metrics, with the layer's vectors nil and its
// counters zero (TestNilLayerEquivalence). Layers compose freely.
//
// A zero Config gives sim.Run's schedule and flows
// (TestRunFaultyEmptyPlanEquivalence), but returns the full *ElasticMetrics
// and runs slower: sim.Run keeps the paper's fault-free loops, whose EFT
// dispatch runs on the ready tree.
type Config struct {
	// Plan replays servers going down and up at the plan's instants. A
	// failing server loses all queued and running requests (non-preemptive
	// restart — partial work is wasted), and lost requests fail over to a
	// live replica under Retry. Requests whose whole processing set is down
	// are parked until the first replica recovers. Gray failures are
	// replayed too: inside a plan Slowdown segment the server processes at
	// 1/Factor speed, so completion times come from faults.FinishTime
	// instead of start + proc. A nil or empty plan — including one whose
	// slowdowns all have factor 1 — reproduces sim.Run's schedule and flows
	// (TestRunFaultyNoopSlowdownsByteIdentical).
	//
	// Routers see the live cluster only: an arriving (or failing-over)
	// request is presented with its processing set shrunk to the live
	// replicas, so every Router implementation works unchanged; picking a
	// dead server is reported as an error. Dropped requests are left
	// unassigned in the returned schedule (Machine −1), so
	// core.Schedule.Validate only applies to runs without drops.
	Plan *faults.Plan
	// Retry governs requests lost to a crash (see RetryPolicy). The zero
	// value retries forever, immediately.
	Retry RetryPolicy
	// Overload attaches the overload-control subsystem (see
	// overload.Config):
	//
	//   - Admission is consulted once per arrival (after shedding, so it
	//     sees trimmed queues); rejected tasks are never dispatched.
	//   - Shedder trims any machine whose oldest queued task is older than
	//     the watermark, in policy order, down to the target backlog. The
	//     running request is never shed (non-preemptive execution).
	//   - Ejector observes every final completion and temporarily ejects
	//     servers whose service-time EWMA is an outlier. Primaries and hedge
	//     copies share one candidate rule: the mandatory filters (live,
	//     breaker-admitted, not the primary's server) apply first, and the
	//     ejector's preference applies last, keeping the non-ejected
	//     candidates when any remain and all of them otherwise. Ejection
	//     alone therefore never parks work.
	//   - Guard tracks offered load and raises the brownout signal.
	//   - If Admission implements overload.Budgeted (DeadlineAdmit does),
	//     the budget is enforced at every dispatch: an attempt that would
	//     complete with flow > Budget + proc is shed instead, so every
	//     completed task satisfies Fmax ≤ Budget + p_max (the auditor's
	//     "deadline" invariant).
	//
	// Nil leaves the Rejected, Shed and Reason vectors nil.
	Overload *overload.Config
	// Elastic attaches online membership (see elastic.Config). The
	// instance's M is the slot capacity; the run starts on the first
	// Initial slots and grows or shrinks the active set mid-run, scripted
	// and/or autoscaled:
	//
	//   - Machine ids are stable slots 0..M−1. Fault plans, per-server
	//     metrics and routers keep their indexing; a plan authored for a
	//     smaller cluster is lifted with faults.Plan.Extend.
	//   - Every task's processing set is remapped at dispatch time onto the
	//     active subring: the first k active machines walking clockwise
	//     from the set's ring origin (elastic.Effective — the one routing
	//     rule, shared with the auditor). At full membership this is the
	//     static set.
	//   - Scale-up activates the lowest inactive slot after the warm-up
	//     delay; the joiner counts toward committed capacity immediately (so
	//     the autoscaler doesn't double-provision) but accepts work only at
	//     the join. Joins wake every parked task.
	//   - Scale-down drains the highest active slot: its running request
	//     finishes in place (non-preemptive execution), its queued requests
	//     hand off to surviving members of their effective sets,
	//     immediately, in FIFO order. No admitted task is ever lost: a
	//     handoff re-enters the normal dispatch path (it may re-queue, park
	//     or be deadline-shed, never vanish) — enforced by the audit
	//     membership invariants on every chaos churn trial.
	//   - The autoscaler (Auto) is evaluated once per arrival; its guard is
	//     fed by the engine unless it is the same estimator as the overload
	//     config's Guard, which the arrival path already feeds.
	//
	// Deliberate limits: membership moves within [Min, Max] and scale
	// decisions clamp rather than fail; draining below a set's replication
	// factor parks nothing (the walk just yields fewer machines), but Min
	// should stay ≥ k so restricted sets keep their width. Nil leaves
	// Membership and Dispatched nil.
	Elastic *elastic.Config
	// Hedge attaches hedged execution (see hedge.Config): when a dispatched
	// request's in-queue + in-service age crosses the trigger — a fixed
	// delay, a live flow-time quantile, or tied-request mode — the engine
	// speculatively re-dispatches a copy to the best *other* eligible
	// server of its processing set (respecting membership remapping,
	// outages, ejection preference and the admission deadline budget). The
	// first completion wins and the losing attempt is cancelled — always
	// before it starts service, mid-service only with CancelRunning.
	//
	// Invariants the auditor re-checks on every hedged chaos trial
	// (audit.Options.Hedge): exactly one effective completion per task, the
	// copy's server dispatch-time eligible, cancelled copies never counted
	// in flow time, and every unit of duplicate busy time accounted in the
	// metrics' DuplicateWork / CancelledWork split. Nil leaves the hedge
	// vectors nil and the hedge counters zero.
	Hedge *hedge.Config
	// Resilience attaches the metastable-failure protections (see
	// resilience.Config):
	//
	//   - Jitter randomizes every retry's backoff delay with a pure hash of
	//     (seed, task, attempt) — full, equal or decorrelated — so
	//     synchronized retry waves from a mass outage spread out instead of
	//     re-saturating the recovered servers. Replayable: equal seeds retry
	//     at identical instants.
	//   - RetryBudget is a token bucket refilled by every first-attempt
	//     dispatch and debited by every retry, so retry traffic can never
	//     exceed the configured fraction of live traffic. An over-budget
	//     retry drops its task with the BudgetDropped disposition (never
	//     parked forever); RetriesIssued + RetriesDropped ==
	//     RetriesRequested holds exactly and is audited.
	//   - Breaker gives every server a circuit breaker that watches a
	//     sliding window of dispatch outcomes — crashes, and completions
	//     slower than SlowFactor × nominal (how a gray-slow server that
	//     never crashes is caught). A tripped breaker blocks dispatches for
	//     the cooldown, then admits a capped number of half-open probes; a
	//     probe success closes it, a probe failure re-opens it. Failover
	//     routing filters breaker-open servers out of every candidate set
	//     (hedge copies go only to closed breakers); a task whose whole
	//     effective set is open parks and wakes at the next breaker
	//     transition — it never livelocks.
	//
	// Nil leaves the resilience vectors nil and its counters zero.
	Resilience *resilience.Config
	// Probe observes the run: obs.Multi(sinks...) feeds every event, of
	// every layer, to each sink as one obs.Event. Unlike sim.RunProbed,
	// completions are reported only when they become final
	// (crash-invalidated attempts never complete), in time order; crashes
	// surface as a failover followed by a retry or drop for each lost
	// request. The engine reaches the layers' hooks by asserting the probe
	// to obs.OverloadObserver, obs.MembershipObserver, obs.HedgeObserver
	// and obs.ResilienceObserver, which Multi implements. Every hook sits
	// behind a nil guard, so a nil probe allocates nothing extra
	// (TestProbeNilRunFaultyAllocs).
	Probe obs.Probe
}
