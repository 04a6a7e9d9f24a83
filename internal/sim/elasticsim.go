package sim

import (
	"fmt"
	"math"

	"flowsched/internal/core"
	"flowsched/internal/elastic"
	"flowsched/internal/faults"
	"flowsched/internal/obs"
	"flowsched/internal/overload"
	"flowsched/internal/resilience"
	"flowsched/internal/sched"
)

// ElasticMetrics extends OverloadMetrics with the membership observables of
// an elastic run. Membership and Dispatched are nil when the run had no
// elastic config (a nil Config.Elastic): the ring never changed and the
// struct carries exactly OverloadMetrics.
type ElasticMetrics struct {
	OverloadMetrics
	// Membership is the replayable membership history: capacity, initial
	// active prefix and every join/drain. The auditor replays it to re-derive
	// dispatch-time eligibility.
	Membership *elastic.Membership
	// Dispatched records each task's final dispatch instant (NaN for tasks
	// that never dispatched: rejected, or parked forever). The auditor checks
	// membership eligibility at this instant. The core.Times type keeps the
	// deliberate NaN sentinels JSON-encodable (they marshal as null).
	// Breaker-enabled runs (a Config.Resilience with a Breaker) populate
	// it too, so the auditor can check dispatch instants against the
	// breaker's open spans even without an elastic config.
	Dispatched core.Times
	// ScaleUps / ScaleDowns count committed scale decisions (per machine);
	// Handoffs counts queued tasks moved off draining machines.
	ScaleUps   int
	ScaleDowns int
	Handoffs   int
	// WarmUpTime is the total setup delay imposed on joiners (ScaleUps ×
	// the config's WarmUp).
	WarmUpTime core.Time
	// MachineHours is ∫ members dt over [0, Horizon] — the provisioning cost
	// the autoscale experiment trades against Fmax. Warming machines are not
	// counted (they do no work yet).
	MachineHours core.Time

	// Hedged-execution observables (Config.Hedge). The per-task vectors are
	// nil and every counter zero when the run had no hedge config.
	//
	// Hedged marks tasks for which a speculative copy was issued;
	// HedgeCopyServer / HedgeCopyAt record the copy's destination and
	// dispatch instant (−1 / NaN when never hedged); HedgeWonByCopy marks
	// tasks whose copy beat the primary. The auditor re-checks the copy's
	// dispatch-time eligibility and the winner's consistency from these.
	Hedged          []bool
	HedgeCopyServer []int
	HedgeCopyAt     core.Times
	HedgeWonByCopy  []bool
	// HedgesIssued counts speculative copies dispatched; every issued copy
	// resolves as exactly one of HedgeWinsCopy (it finished first),
	// HedgesCancelled (first-win, crash, drain or trim killed it) or
	// HedgesRevoked (tied mode revoked it at service start).
	// HedgeWinsPrimary counts hedged tasks whose primary finished first.
	HedgesIssued     int
	HedgeWinsPrimary int
	HedgeWinsCopy    int
	HedgesCancelled  int
	HedgesRevoked    int
	// CancelledWork is busy time reclaimed by cancellations (work that was
	// scheduled but never executed); DuplicateWork is busy time actually
	// burned on losing attempts — the real cost of hedging, bounded in the
	// headline experiment via DuplicateRatio.
	CancelledWork core.Time
	DuplicateWork core.Time

	// Resilience observables (Config.Resilience). The per-task vectors are
	// nil and every counter zero when the run had no resilience config.
	//
	// Every retry that survives the policy's attempt-cap and timeout
	// checks is Requested; with a retry budget it is then either Issued
	// (a token was available) or Dropped (over budget — the task takes
	// the BudgetDropped disposition instead of parking forever). Without
	// a budget every requested retry is issued, so the conservation
	// equation RetriesIssued + RetriesDropped == RetriesRequested holds
	// exactly either way (audited per run).
	RetriesRequested int
	RetriesIssued    int
	RetriesDropped   int
	// BudgetDropped marks tasks whose retry was refused by the budget.
	// Such a task is dropped — unless a live hedge copy completed it.
	BudgetDropped []bool
	// BreakerOpens/BreakerCloses/BreakerProbes count breaker open
	// episodes, probe-success closes and issued half-open probes;
	// BreakerSpans records each open episode for the auditor.
	BreakerOpens  int
	BreakerCloses int
	BreakerProbes int
	BreakerSpans  []resilience.Span
	// ProbeDispatch marks tasks whose completing dispatch was a half-open
	// probe (the only dispatches legal against a non-closed breaker).
	ProbeDispatch []bool
}

// elRun is the engine-side runtime of an elastic config: the active/warming
// slot vectors, the autoscaler's controller, the membership log under
// construction and scratch space for the effective-set walk. It exists only
// when a config is present, so the disabled path touches none of it and stays
// byte-identical to a run without the layer.
type elRun struct {
	cfg      *elastic.Config
	mo       obs.MembershipObserver
	ctrl     *elastic.Controller
	guard    *overload.Estimator
	ownGuard bool // guard not shared with the overload config: engine feeds it

	active  []bool
	warming []bool
	members int
	heating int // machines announced but still warming up
	minM    int
	maxM    int

	primary []int        // per-task ring-walk origin (elastic.RingStart, precomputed)
	effBuf  core.ProcSet // effective-set scratch (Arena.candidates)

	ms *elastic.Membership
}

// Run is the unified engine: it simulates the instance under the router
// with the layers cfg arms (see Config for each layer's model). All per-run
// state lives in the arena: repeat calls on one arena reuse every buffer, and
// the returned schedule and metrics point into the arena — valid until its
// next run. Callers that hold two results at once give each its own arena
// (NewArena().Run).
func (a *Arena) Run(inst *core.Instance, router Router, cfg Config) (*core.Schedule, *ElasticMetrics, error) {
	plan, policy, ocfg, ecfg, hcfg, rcfg, probe := cfg.Plan, cfg.Retry, cfg.Overload, cfg.Elastic, cfg.Hedge, cfg.Resilience, cfg.Probe
	if err := inst.Validate(); err != nil {
		return nil, nil, fmt.Errorf("sim: %w", err)
	}
	if err := policy.Validate(); err != nil {
		return nil, nil, err
	}
	if plan == nil {
		plan = faults.Empty(inst.M)
	}
	if err := plan.Validate(); err != nil {
		return nil, nil, fmt.Errorf("sim: %w", err)
	}
	if plan.M != inst.M {
		return nil, nil, fmt.Errorf("sim: fault plan for %d servers, instance has %d (faults.Plan.Extend lifts a plan onto more slots)", plan.M, inst.M)
	}
	if err := ocfg.Validate(inst.M); err != nil {
		return nil, nil, fmt.Errorf("sim: %w", err)
	}
	if err := ecfg.Validate(inst.M); err != nil {
		return nil, nil, fmt.Errorf("sim: %w", err)
	}
	if err := hcfg.Validate(); err != nil {
		return nil, nil, fmt.Errorf("sim: %w", err)
	}
	if err := rcfg.Validate(); err != nil {
		return nil, nil, fmt.Errorf("sim: %w", err)
	}
	plan = plan.Normalize()
	if r, ok := router.(Resettable); ok {
		r.Reset()
	}

	m := inst.M
	n := inst.N()
	a.Reset(n, m)
	a.memberEFT, a.eftLast = false, false
	if r, ok := eftLoop(router); ok {
		_, isMin := r.Tie.(sched.MinTie)
		_, a.eftLast = r.Tie.(sched.MaxTie)
		a.memberEFT = r.Tie == nil || isMin || a.eftLast
	}
	if hcfg != nil {
		// Speculative copies are virtual attempts n..2n−1: grow the
		// attempt-indexed engine state so a copy can occupy a queue
		// alongside its primary. Everything task-indexed (flows, schedule,
		// dispositions) stays at n.
		a.curStart = resliceZero(a.curStart, 2*n)
		a.curEnd = resliceZero(a.curEnd, 2*n)
		a.busyAdd = resliceZero(a.busyAdd, 2*n)
		a.seq = grow(a.seq, 2*n)
		a.fq.next = grow(a.fq.next, 2*n)
	}
	st := &a.st
	fq := &a.fq
	a.sched = core.Schedule{Inst: inst, Machine: a.machine, Start: a.start}
	sched := &a.sched
	a.metrics = ElasticMetrics{
		OverloadMetrics: OverloadMetrics{
			FaultMetrics: FaultMetrics{
				Metrics:  Metrics{Flows: a.flows, Busy: a.busy, tasks: inst.Tasks},
				Attempts: a.attempts,
				Dropped:  a.dropped,
				Parked:   a.parkedBits,
				plan:     plan,
			},
		},
	}
	metrics := &a.metrics

	live := a.live
	// slow holds each server's effective gray-failure segments; nil when the
	// plan has none, so the healthy dispatch arithmetic below is untouched
	// (and all-factor-1 segments were dropped by Normalize above).
	var slow [][]faults.Slowdown
	if len(plan.Slowdowns) > 0 {
		slow = plan.ServerSlowdowns()
	}
	curStart := a.curStart // start of the current attempt
	curEnd := a.curEnd     // end of the current attempt
	busyAdd := a.busyAdd   // busy time credited for the current attempt
	parked := a.parked     // requests waiting for any replica to recover
	events := &a.events
	events.Reserve(2 * len(plan.Outages))
	for _, o := range plan.Outages {
		events.Push(o.From, faultEvent{kind: evDown, server: o.Server})
		events.Push(o.Until, faultEvent{kind: evUp, server: o.Server})
	}

	// Everything overload-control hangs off ov; ov == nil is the disabled
	// path and must stay byte-identical to a run without the layer (and
	// allocation-free relative to it), so every use below sits behind an
	// ov != nil guard.
	var ov *ovRun
	if ocfg != nil {
		ocfg.Reset(m)
		ov = &a.ov
		*ov = ovRun{cfg: ocfg, cands: a.ov.cands, ejBuf: a.ov.ejBuf}
		a.rejected = resliceZero(a.rejected, n)
		a.shedded = resliceZero(a.shedded, n)
		a.reason = resliceZero(a.reason, n)
		metrics.Rejected = a.rejected
		metrics.Shed = a.shedded
		metrics.Reason = a.reason
		ov.view = overload.View{M: m, Completion: st.Completion, QueueLen: st.QueueLen, Live: live}
		if ocfg.Ejector != nil {
			ov.view.Ejected = ocfg.Ejector.EjectedVec()
			if cap(ov.ejBuf) < m {
				ov.ejBuf = make(core.ProcSet, 0, m)
			}
		}
		if b, ok := ocfg.Admission.(overload.Budgeted); ok {
			ov.budget = b.Budget()
		}
		ov.op, _ = probe.(obs.OverloadObserver)
		a.shedding = ocfg.Shedder.Enabled()
		if a.shedding {
			// The releases of the tasks, read by lowerFloor and the
			// watermark scan; runs without a shedder never copy them.
			a.releases = grow(a.releases, n)
			for i := range inst.Tasks {
				a.releases[i] = inst.Tasks[i].Release
			}
			if ov.cands == nil {
				ov.cands = make([]overload.Candidate, 0, 16)
			}
			ov.cands = ov.cands[:0]
			// One concatenation per run instead of one per trim.
			ov.shedReason = ocfg.Shedder.Policy.Reason()
		}
	}

	// Everything elastic hangs off el, with the same discipline as ov: every
	// use below sits behind an el != nil guard so the disabled path is
	// byte-identical to a run without the layer.
	var el *elRun
	if ecfg != nil {
		el = &a.el
		*el = elRun{
			cfg:     ecfg,
			active:  resliceZero(a.el.active, m),
			warming: resliceZero(a.el.warming, m),
			primary: grow(a.el.primary, n),
			effBuf:  a.el.effBuf,
		}
		if cap(el.effBuf) < m {
			el.effBuf = make(core.ProcSet, 0, m)
		}
		el.members = ecfg.InitialMembers(m)
		for j := 0; j < el.members; j++ {
			el.active[j] = true
		}
		el.minM, el.maxM = ecfg.MinMembers(), ecfg.MaxMembers(m)
		for i, t := range inst.Tasks {
			el.primary[i] = elastic.RingStart(t.Set, m)
		}
		a.membership = elastic.Membership{Capacity: m, Initial: el.members, Changes: a.membership.Changes[:0]}
		el.ms = &a.membership
		el.mo, _ = probe.(obs.MembershipObserver)
		if a.ctrl.Reset(ecfg, m) {
			el.ctrl = &a.ctrl
		} else {
			el.ctrl = nil
		}
		if ecfg.Auto != nil {
			el.guard = ecfg.Auto.Guard
			el.ownGuard = ocfg == nil || ocfg.Guard != el.guard
			if el.ownGuard {
				el.guard.Reset()
			}
		}
		for _, ev := range ecfg.Script {
			events.Push(ev.At, faultEvent{kind: evScale, task: ev.Delta})
		}
		metrics.Membership = el.ms
	}

	// Everything hedging hangs off hd, with the same discipline as ov and
	// el: every use below sits behind an hd != nil guard (including the
	// closure assignments — they allocate), so the disabled path is
	// byte-identical to a run without the layer and allocation-free
	// relative to it.
	var hd *hdRun
	if hcfg != nil {
		hd = &a.hd
		*hd = hdRun{
			cfg:        hcfg,
			minSamples: hcfg.MinSamplesOrDefault(),
			done:       resliceZero(a.hd.done, n),
			hedged:     resliceZero(a.hd.hedged, n),
			copyLive:   resliceZero(a.hd.copyLive, n),
			resolved:   resliceZero(a.hd.resolved, n),
			priIn:      resliceZero(a.hd.priIn, n),
			priDropped: resliceZero(a.hd.priDropped, n),
			priRevoked: resliceZero(a.hd.priRevoked, n),
			wonByCopy:  resliceZero(a.hd.wonByCopy, n),
			copySrv:    grow(a.hd.copySrv, n),
			copyAt:     grow(a.hd.copyAt, n),
			kills:      a.hd.kills[:0],
			trigAt:     grow(a.hd.trigAt, n),
			trigSeq:    resliceZero(a.hd.trigSeq, n),
		}
		for i := range hd.copySrv {
			hd.copySrv[i] = -1
		}
		for i := range hd.copyAt {
			hd.copyAt[i] = core.Time(math.NaN())
		}
		if hcfg.Quantile > 0 && !hcfg.Tied {
			hd.hist = obs.NewHistogram()
		}
		hd.ho, _ = probe.(obs.HedgeObserver)
		metrics.Hedged = hd.hedged
		metrics.HedgeCopyServer = hd.copySrv
		metrics.HedgeCopyAt = hd.copyAt
		metrics.HedgeWonByCopy = hd.wonByCopy
	}

	// Everything resilience hangs off rs, with the same discipline as ov,
	// el and hd: every use below sits behind an rs != nil guard, so the
	// disabled path is byte-identical to a run without the layer and
	// allocation-free relative to it. No closures are assigned here — all
	// resilience work is straight-line code inside the existing ones.
	var rs *rsRun
	if rcfg != nil {
		rs = &a.rs
		// The composite literal wipes a.rs, so every recycled buffer is
		// carried through it (the conditional ones at length 0, resliced to
		// size below only when their mechanism is on).
		*rs = rsRun{
			cfg:     rcfg,
			bdrop:   resliceZero(a.rs.bdrop, n),
			prev:    a.rs.prev[:0],
			probe:   a.rs.probe[:0],
			curSpan: a.rs.curSpan[:0],
			spans:   a.rs.spans[:0],
		}
		rs.ro, _ = probe.(obs.ResilienceObserver)
		if rcfg.RetryBudget > 0 {
			rs.budgetOn = true
			rs.budget.Reset(rcfg.RetryBudget, rcfg.BudgetBurstOrDefault())
		}
		if rcfg.Jitter == resilience.JitterDecorrelated {
			rs.prev = resliceZero(rs.prev, n)
		}
		metrics.BudgetDropped = rs.bdrop
		if rcfg.Breaker != nil {
			rs.brk = &a.breakers
			rs.brk.Reset(rcfg.Breaker, m)
			rs.probe = resliceZero(rs.probe, n)
			rs.curSpan = resliceZero(rs.curSpan, m)
			metrics.ProbeDispatch = rs.probe
		}
	}

	if el != nil || (rs != nil && rs.brk != nil) {
		// The auditor checks membership eligibility and breaker legality at
		// each task's final dispatch instant; dispatch and a winning copy
		// record it whenever the vector is set.
		a.dispatched = grow(a.dispatched, n)
		for i := range a.dispatched {
			a.dispatched[i] = core.Time(math.NaN())
		}
		metrics.Dispatched = a.dispatched
	}

	// Hedge helpers, assigned only on hedged runs (closure values allocate;
	// the nil-config path must not). Declared up front so drain and dispatch
	// can call them; every call site sits behind an hd != nil guard.
	var (
		hedgeIssue     func(id int, now core.Time) error
		hedgeThreshold func() core.Time
		killCopy       func(rid int, now core.Time)
		settleCopy     func(rid, j int, now core.Time, started bool)
		tiedResolve    func(id int, when core.Time)
	)

	// feed reports the effective completion of attempt id on srv at when to
	// the ejector (as a service-time factor) and to srv's breaker: on time
	// is a success, SlowFactor-late is a failure (how a gray-slow server
	// trips without ever crashing). A completing probe settles the
	// half-open state instead; its probe mark stays set — that is the
	// ProbeDispatch metric the auditor reads. A copy (id ≥ n) is never a
	// probe: it goes only to closed breakers.
	feed := func(id, srv int, when core.Time) {
		rid := id
		if rid >= n {
			rid -= n
		}
		if ov != nil && ov.cfg.Ejector != nil {
			if proc := inst.Tasks[rid].Proc; proc > 0 {
				factor := float64((when - curStart[id]) / proc)
				if ov.cfg.Ejector.Observe(srv, factor, when) {
					metrics.Ejections++
					if ov.op != nil {
						ov.op.OnEject(srv, when)
					}
				}
			}
		}
		if rs != nil && rs.brk != nil {
			f := rs.failed(inst, rid, curStart[id], when)
			if id < n && rs.probe[id] {
				closedNow, openedNow := rs.brk.ObserveProbe(srv, f, when)
				if closedNow {
					rs.closed(srv, when, metrics, events)
				}
				if openedNow {
					rs.opened(srv, when, metrics, events)
				}
			} else if rs.brk.Observe(srv, f, when) {
				rs.opened(srv, when, metrics, events)
			}
		}
	}

	// drain settles completions up to instant upTo in time order: the next
	// one is always the head of the server the head index ranks first. The
	// latest effective completion is the run's makespan.
	drain := func(upTo core.Time) {
		for {
			srv, when, ok := a.heads.min()
			if !ok || when > upTo {
				return
			}
			if rs != nil && events.Len() > 0 {
				// A completion in this drain may have armed a breaker
				// event due before the next completion — a close waking
				// parked work at its own instant, an open's cooldown
				// expiry. Yield so the caller's event loop interleaves it
				// in time order; a same-instant completion still settles
				// first (strict <).
				if te, _ := events.Peek(); te < when {
					return
				}
			}
			id := fq.head[srv] // the completing attempt
			rid := id
			if hd != nil {
				if rid >= n {
					rid -= n
				}
				if hd.done[rid] || metrics.Dropped[rid] || (ov != nil && metrics.Shed[rid]) {
					// A losing attempt ran to completion: silently reclaim
					// its queue slot. All of its busy time was duplicate
					// work; no OnComplete fires and the ejector sees nothing
					// — the task completed earlier, exactly once (or was
					// excluded, and this un-cancellable attempt just drained).
					a.popHead(srv)
					metrics.DuplicateWork += busyAdd[id]
					if id >= n {
						hd.copyLive[rid] = false
					}
					continue
				}
				hd.done[rid] = true
				if hd.hist != nil {
					hd.hist.Observe(float64(when - inst.Tasks[rid].Release))
				}
			}
			if when > metrics.Makespan {
				metrics.Makespan = when
			}
			if id >= n {
				// The speculative copy finished first: it is the effective
				// completion. Record it as the task's schedule entry, then
				// cancel (or abandon) the primary attempt.
				t := inst.Tasks[rid]
				pj := a.machine[rid] // primary's server, before the winner overwrites it
				if probe != nil {
					probe.OnComplete(rid, srv, t.Release, t.Proc, when)
				}
				a.popHead(srv)
				hd.copyLive[rid] = false
				hd.wonByCopy[rid] = true
				if hd.resolveCopy(rid) {
					metrics.HedgeWinsCopy++
				}
				metrics.Flows[rid] = when - t.Release
				sched.Assign(rid, srv, curStart[id])
				if metrics.Dispatched != nil {
					metrics.Dispatched[rid] = hd.copyAt[rid]
				}
				if hd.priIn[rid] {
					started := curStart[rid] < when
					a.cancelAttempt(inst, slow, rid, pj, when, hd.cfg.CancelRunning)
					hd.priIn[rid] = false
					rs.refundProbe(rid, pj, when, events)
					if hd.ho != nil {
						hd.ho.OnHedgeCancel(rid, pj, when, started)
					}
				}
				feed(id, srv, when)
				if hd.ho != nil {
					hd.ho.OnHedgeWin(rid, srv, true, when)
				}
				continue
			}
			if hd != nil {
				// The primary finished first: first-win cancels the copy.
				hd.priIn[id] = false
				if hd.copyLive[id] {
					killCopy(id, when)
				}
				if hd.hedged[id] {
					metrics.HedgeWinsPrimary++
					if hd.ho != nil {
						hd.ho.OnHedgeWin(id, srv, false, when)
					}
				}
			}
			if probe != nil {
				t := inst.Tasks[id]
				probe.OnComplete(id, srv, t.Release, t.Proc, when)
			}
			a.popHead(srv)
			feed(id, srv, when)
		}
	}

	drop := func(id int, now core.Time) {
		metrics.Dropped[id] = true
		metrics.Flows[id] = now - inst.Tasks[id].Release
		sched.Assign(id, -1, math.NaN())
		if probe != nil {
			probe.OnDrop(id, inst.Tasks[id].Release, now)
		}
	}

	// shed records the overload disposition of request id abandoned at now;
	// queue surgery (for watermark trims) happens at the call sites.
	shed := func(id, server int, now core.Time, reason string) {
		metrics.Shed[id] = true
		metrics.Reason[id] = reason
		metrics.Flows[id] = now - inst.Tasks[id].Release
		sched.Assign(id, -1, math.NaN())
		if ov.op != nil {
			ov.op.OnShed(id, server, inst.Tasks[id].Release, now, reason)
		}
	}

	reject := func(id int, now core.Time, reason string) {
		metrics.Rejected[id] = true
		metrics.Reason[id] = reason
		sched.Assign(id, -1, math.NaN())
		if ov.op != nil {
			ov.op.OnReject(id, now, reason)
		}
	}

	// dropOrDefer drops request id at instant now, unless its hedge copy is
	// still live and may yet complete the task: then the drop waits until
	// the copy resolves (settleCopy).
	dropOrDefer := func(id int, now core.Time) {
		if hd != nil && hd.copyLive[id] {
			hd.priDropped[id] = true
			return
		}
		drop(id, now)
	}

	// dispatch routes request id at instant now (its release, a failover
	// instant, a recovery instant, or a drain handoff). The arithmetic
	// mirrors Run exactly so an empty plan reproduces it bit for bit. A
	// request no server may take parks; a recovery, join or breaker
	// transition wakes it (the breakers arm an event for every transition,
	// so a breaker-blocked request never livelocks).
	dispatch := func(id int, now core.Time) error {
		if hd != nil && hd.done[id] {
			// Already completed by its hedge copy: a retry, wake or handoff
			// racing the win resolves to a no-op (never a second completion).
			return nil
		}
		if ov != nil && ov.cfg.Ejector != nil {
			ov.cfg.Ejector.Readmit(now, func(j int) {
				metrics.Readmissions++
				if ov.op != nil {
					ov.op.OnReadmit(j, now)
				}
			})
		}
		cands, ok := a.candidates(inst, el, ov, rs, id, -1)
		if !ok {
			if hd != nil {
				hd.priIn[id] = false
			}
			metrics.Parked[id] = true
			parked = append(parked, id)
			return nil
		}
		j, start, end, busy, err := a.place(inst, router, slow, cands, id, now)
		if err != nil {
			return err
		}
		task := inst.Tasks[id]
		if ov != nil && ov.budget > 0 && end-task.Release > ov.budget+task.Proc {
			// Deadline enforcement: this attempt would already blow the
			// admitted-task budget, so completing it is pointless — shed
			// before committing any server time.
			if hd != nil {
				hd.priIn[id] = false
				if hd.copyLive[id] {
					killCopy(id, now)
				}
			}
			shed(id, j, now, overload.ReasonDeadline)
			return nil
		}
		metrics.Attempts[id]++
		if metrics.Dispatched != nil {
			metrics.Dispatched[id] = now
		}
		if rs != nil {
			if rs.budgetOn && metrics.Attempts[id] == 1 {
				rs.budget.Refill()
			}
			if rs.brk != nil {
				if rs.brk.State(j) == resilience.HalfOpen {
					// Every half-open dispatch is a probe (the candidate
					// rule admitted it into a free probe slot).
					rs.brk.StartProbe(j)
					rs.probe[id] = true
					metrics.BreakerProbes++
					if rs.ro != nil {
						rs.ro.OnBreakerProbe(j, id, now)
					}
				} else if rs.probe[id] {
					rs.probe[id] = false // defensive: a fresh attempt is not a probe
				}
			}
		}
		a.enqueue(j, id, start, end, busy)
		sched.Assign(id, j, start)
		metrics.Flows[id] = end - task.Release
		if probe != nil {
			probe.OnDispatch(id, j, now, start, end)
		}
		if hd != nil {
			hd.priIn[id] = true
			if metrics.Attempts[id] == 1 {
				// Arm the hedge on the first attempt only: tied mode enqueues
				// the pair up front and revokes the loser at service start;
				// otherwise the trigger fires once the attempt's age crosses
				// the threshold (a fixed delay, or the live flow quantile).
				if hd.cfg.Tied {
					if err := hedgeIssue(id, now); err != nil {
						return err
					}
					if hd.copyLive[id] {
						at := curStart[id]
						if cs := curStart[n+id]; cs < at {
							at = cs
						}
						a.armTaskEvent(evTied, id, at)
					}
				} else if thr := hedgeThreshold(); thr >= 0 {
					if at := now + thr; end <= at && (slow == nil || len(slow[j]) == 0) {
						// Done by its trigger instant unless rearmHedge
						// re-arms it: claim the trigger's position only.
						hd.trigAt[id], hd.trigSeq[id] = at, events.Claim()
					} else {
						a.armTaskEvent(evHedge, id, at)
					}
				}
			}
		}
		return nil
	}

	// requeue decides the fate of request id aborted at instant now: the
	// policy's attempt cap and timeout first, then (on resilient runs) the
	// jittered delay and the retry-budget gate. A retry that survives the
	// policy checks is Requested; the budget then either Issues it or Drops
	// it with the BudgetDropped disposition — the conservation equation
	// RetriesIssued + RetriesDropped == RetriesRequested is exact.
	requeue := func(id int, now core.Time) {
		if policy.MaxAttempts > 0 && metrics.Attempts[id] >= policy.MaxAttempts {
			dropOrDefer(id, now)
			return
		}
		d := policy.delay(metrics.Attempts[id])
		if rs != nil && rs.cfg.Jitter != resilience.JitterNone {
			var prev core.Time
			if len(rs.prev) > 0 { // decorrelated mode tracks the previous draw
				prev = rs.prev[id]
			}
			d = resilience.Jitter(rs.cfg.Jitter, rs.cfg.Seed, id, metrics.Attempts[id], d, policy.Backoff, prev)
			if len(rs.prev) > 0 {
				rs.prev[id] = d
			}
		}
		next := now + d
		if policy.Timeout > 0 && next-inst.Tasks[id].Release > policy.Timeout {
			dropOrDefer(id, now)
			return
		}
		if rs != nil {
			metrics.RetriesRequested++
			if rs.budgetOn && !rs.budget.Take() {
				metrics.RetriesDropped++
				rs.bdrop[id] = true
				if rs.ro != nil {
					rs.ro.OnRetryBudgetDrop(id, metrics.Attempts[id], now)
				}
				dropOrDefer(id, now)
				return
			}
			metrics.RetriesIssued++
		}
		events.Push(next, faultEvent{kind: evRetry, task: id})
		if probe != nil {
			probe.OnRetry(id, metrics.Attempts[id], now)
		}
	}

	if hd != nil {
		// hedgeThreshold returns the trigger age for a fresh dispatch, or −1
		// when no trigger is armable yet (quantile trigger still warming up
		// with no fixed delay backing it).
		hedgeThreshold = func() core.Time {
			if hd.hist != nil && hd.hist.Count() >= hd.minSamples {
				return core.Time(hd.hist.Quantile(hd.cfg.Quantile))
			}
			if hd.cfg.Delay > 0 {
				return hd.cfg.Delay
			}
			return -1
		}
		// settleCopy books task rid's copy, lost on server j at instant now to
		// a crash, drain or trim, as cancelled (once); callers book its time
		// as duplicate or cancelled work. Unless the task is done, the
		// primary's deferred fate then resolves: a drop postponed while the
		// copy was live, or a tied-mode revocation that left the copy as the
		// sole attempt.
		settleCopy = func(rid, j int, now core.Time, started bool) {
			hd.copyLive[rid] = false
			if hd.done[rid] {
				return
			}
			if hd.resolveCopy(rid) {
				metrics.HedgesCancelled++
				if hd.ho != nil {
					hd.ho.OnHedgeCancel(rid, j, now, started)
				}
			}
			if hd.priDropped[rid] {
				hd.priDropped[rid] = false
				drop(rid, now)
				return
			}
			if hd.priRevoked[rid] {
				hd.priRevoked[rid] = false
				requeue(rid, now)
			}
		}
		// killCopy cancels task rid's live copy at instant now (first-win, or
		// an exclusion decision on the primary). A started copy without
		// cancel-mid-service cannot be removed and runs to completion as
		// duplicate work, still live; either way the attempt resolves as
		// cancelled, once.
		killCopy = func(rid int, now core.Time) {
			cs := hd.copySrv[rid]
			cid := n + rid
			started := curStart[cid] < now
			if a.cancelAttempt(inst, slow, cid, cs, now, hd.cfg.CancelRunning) {
				hd.copyLive[rid] = false
			}
			if hd.resolveCopy(rid) {
				metrics.HedgesCancelled++
				if hd.ho != nil {
					hd.ho.OnHedgeCancel(rid, cs, now, started)
				}
			}
		}
		// hedgeIssue dispatches a speculative copy of task id to the best
		// *other* eligible server. It declines silently (no copy, no error)
		// when the task is settled or excluded, the hedge cap is reached, the
		// copy would blow the admission budget, or no alternate server exists
		// — a routing violation is a real error, exactly as in dispatch.
		hedgeIssue = func(id int, now core.Time) error {
			if hd.done[id] || hd.hedged[id] || metrics.Dropped[id] || metrics.Parked[id] {
				return nil
			}
			if ov != nil && (metrics.Rejected[id] || metrics.Shed[id]) {
				return nil
			}
			if hd.cfg.MaxHedges > 0 && metrics.HedgesIssued >= hd.cfg.MaxHedges {
				return nil
			}
			pj := -1
			if hd.priIn[id] {
				pj = a.machine[id]
			}
			cands, ok := a.candidates(inst, el, ov, rs, n+id, pj)
			if !ok {
				return nil // no alternate server exists: skip the hedge
			}
			j, start, end, busy, err := a.place(inst, router, slow, cands, n+id, now)
			if err != nil {
				return err
			}
			if t := inst.Tasks[id]; ov != nil && ov.budget > 0 && end-t.Release > ov.budget+t.Proc {
				return nil // the copy could not beat the admitted budget either
			}
			a.enqueue(j, n+id, start, end, busy)
			hd.hedged[id] = true
			hd.copyLive[id] = true
			hd.copySrv[id] = j
			hd.copyAt[id] = now
			metrics.HedgesIssued++
			if hd.ho != nil {
				hd.ho.OnHedge(id, pj, j, now, start, end)
			}
			return nil
		}
		// tiedResolve revokes the losing half of a tied pair the moment the
		// first attempt reaches service (start ties favor the primary). If
		// queue churn pushed both starts out it re-arms; a loser that already
		// started without cancel-mid-service cannot be revoked, and the pair
		// degenerates to plain first-win.
		tiedResolve = func(id int, when core.Time) {
			if hd.done[id] || !hd.copyLive[id] || !hd.priIn[id] {
				return
			}
			cid := n + id
			s1, s2 := curStart[id], curStart[cid]
			first := s1
			if s2 < first {
				first = s2
			}
			if first > when {
				a.armTaskEvent(evTied, id, first)
				return
			}
			if s1 <= s2 {
				// The primary reaches service first: revoke the copy.
				cs := hd.copySrv[id]
				started := curStart[cid] < when
				if a.cancelAttempt(inst, slow, cid, cs, when, hd.cfg.CancelRunning) {
					hd.copyLive[id] = false
					if hd.resolveCopy(id) {
						metrics.HedgesRevoked++
						if hd.ho != nil {
							hd.ho.OnHedgeCancel(id, cs, when, started)
						}
					}
				}
				return
			}
			// The copy reaches service first: revoke the primary and leave
			// the copy as the sole attempt (it resolves as HedgeWinsCopy, or
			// HedgesCancelled if it dies — HedgesRevoked counts only revoked
			// copies, so the resolution equation stays exact). priRevoked
			// re-enters the task through the retry path if the copy dies.
			pj := a.machine[id]
			started := curStart[id] < when
			if a.cancelAttempt(inst, slow, id, pj, when, hd.cfg.CancelRunning) {
				hd.priIn[id] = false
				hd.priRevoked[id] = true
				rs.refundProbe(id, pj, when, events)
				if hd.ho != nil {
					hd.ho.OnHedgeCancel(id, pj, when, started)
				}
			}
		}
	}

	fail := func(j int, now core.Time) {
		live[j] = false
		a.down++
		lost := 0
		for id := fq.head[j]; id >= 0; id = fq.next[id] {
			lost++
		}
		head := fq.takeAll(j)
		a.heads.remove(j)
		st.QueueLen[j] -= lost
		st.Completion[j] = now
		if probe != nil {
			probe.OnFailover(j, now, lost)
		}
		for id := head; id >= 0; {
			nxt := fq.next[id] // before requeue: a re-dispatch relinks id
			executed := core.Time(0)
			if curStart[id] < now {
				executed = now - curStart[id] // the running request's wasted partial work
			}
			metrics.Busy[j] -= busyAdd[id] - executed
			if rs != nil && rs.brk != nil {
				// Every attempt lost to the crash is a failure outcome. A
				// lost half-open probe reports through ObserveProbe (a probe
				// failure re-opens the breaker).
				if id < n && rs.probe[id] {
					_, openedNow := rs.brk.ObserveProbe(j, true, now)
					rs.probe[id] = false
					if openedNow {
						rs.opened(j, now, metrics, events)
					}
				} else if rs.brk.Observe(j, true, now) {
					rs.opened(j, now, metrics, events)
				}
			}
			if hd != nil {
				if id >= n {
					// A crashed speculative copy: its executed part is burned
					// duplicate work; a copy is never retried.
					metrics.DuplicateWork += executed
					settleCopy(id-n, j, now, curStart[id] < now)
					id = nxt
					continue
				}
				if hd.done[id] {
					// A losing primary killed by the crash: the task already
					// completed elsewhere, nothing to retry.
					metrics.DuplicateWork += executed
					id = nxt
					continue
				}
				hd.priIn[id] = false
				a.rearmHedge(id)
			}
			requeue(id, now)
			id = nxt
		}
	}

	// wake re-dispatches parked tasks at instant now: every one (j < 0), or
	// only those eligible on recovered server j. A membership change remaps
	// effective sets and a breaker transition frees capacity anywhere, so
	// both wake everything; dispatch re-parks the still-unservable ones.
	// The woken tasks move to a.wake, apart from parked, so re-parks during
	// the walk overwrite nothing it has yet to read.
	wake := func(j int, now core.Time) error {
		still, woken := parked[:0], a.wake[:0]
		for _, id := range parked {
			if j < 0 || inst.Tasks[id].Eligible(j) {
				woken = append(woken, id)
			} else {
				still = append(still, id)
			}
		}
		parked, a.wake = still, woken
		for _, id := range woken {
			if hd != nil && hd.done[id] {
				continue // completed by its copy while parked
			}
			if policy.Timeout > 0 && now-inst.Tasks[id].Release > policy.Timeout {
				dropOrDefer(id, now)
				continue
			}
			if err := dispatch(id, now); err != nil {
				return err
			}
		}
		return nil
	}

	restore := func(j int, now core.Time) error {
		live[j] = true
		a.down--
		if el != nil {
			j = -1 // effective sets depend on membership, not on j alone
		}
		return wake(j, now)
	}

	// scaleUp commits to activating d machines at instant now: each picks the
	// lowest slot that is neither active nor warming, counts toward committed
	// capacity immediately, and joins (accepts work) WarmUp later.
	scaleUp := func(d int, now core.Time) {
		for ; d > 0; d-- {
			if el.members+el.heating >= el.maxM {
				return
			}
			slot := -1
			for j := 0; j < m; j++ {
				if !el.active[j] && !el.warming[j] {
					slot = j
					break
				}
			}
			if slot < 0 {
				return
			}
			el.warming[slot] = true
			el.heating++
			ready := now + el.cfg.WarmUp
			metrics.ScaleUps++
			metrics.WarmUpTime += el.cfg.WarmUp
			events.Push(ready, faultEvent{kind: evJoin, server: slot})
			if el.mo != nil {
				el.mo.OnScaleUp(slot, now, ready)
			}
		}
	}

	// join activates a warmed-up machine and wakes parked work. Every join
	// at an instant applies before parked work dispatches (DESIGN.md §11):
	// when the next event is another join at now, that join wakes instead.
	join := func(j int, now core.Time) error {
		if el == nil || !el.warming[j] {
			return nil
		}
		el.warming[j] = false
		el.heating--
		el.active[j] = true
		el.members++
		el.ms.Changes = append(el.ms.Changes, elastic.Change{At: now, Machine: j, Join: true, Members: el.members})
		if el.mo != nil {
			el.mo.OnJoin(j, now, el.members)
		}
		if events.Len() > 0 {
			if at, ev := events.Peek(); at == now && ev.kind == evJoin && el.warming[ev.server] {
				return nil
			}
		}
		return wake(-1, now)
	}

	// scaleDown drains d machines at instant now, highest active slot first:
	// the running head (curStart ≤ now) finishes in place, every queued task
	// hands off through the normal dispatch path — re-queued on a survivor,
	// parked, or deadline-shed, but never lost (the audit membership
	// invariants check this on every churn trial).
	scaleDown := func(d int, now core.Time) error {
		for ; d > 0; d-- {
			if el.members <= el.minM {
				return nil
			}
			victim := -1
			for j := m - 1; j >= 0; j-- {
				if el.active[j] {
					victim = j
					break
				}
			}
			if victim < 0 {
				return nil
			}
			// Detach the moved suffix: the running head (if any) stays as the
			// victim's whole queue, everything behind it hands off.
			var movedHead int
			if q0 := fq.head[victim]; q0 >= 0 && curStart[q0] <= now {
				movedHead = fq.next[q0]
				fq.next[q0] = -1
				fq.tail[victim] = q0
				st.Completion[victim] = curEnd[q0]
			} else {
				movedHead = fq.takeAll(victim)
				a.heads.remove(victim)
				st.Completion[victim] = now
			}
			moved := 0  // detached queue entries (speculative copies included)
			handed := 0 // real tasks that will hand off through dispatch
			for id := movedHead; id >= 0; id = fq.next[id] {
				moved++
				if hd == nil || (id < n && !hd.done[id]) {
					handed++
				}
			}
			st.QueueLen[victim] -= moved
			el.active[victim] = false
			el.members--
			metrics.ScaleDowns++
			el.ms.Changes = append(el.ms.Changes, elastic.Change{At: now, Machine: victim, Join: false, Members: el.members})
			if el.mo != nil {
				el.mo.OnScaleDown(victim, now, el.members, handed)
			}
			for id := movedHead; id >= 0; {
				nxt := fq.next[id] // before dispatch: a re-queue relinks id
				metrics.Busy[victim] -= busyAdd[id]
				// A half-open probe racing the drain hands off without an
				// outcome.
				rs.refundProbe(id, victim, now, events)
				if hd != nil {
					if id >= n {
						// A drained speculative copy is cancelled, not handed
						// off — the primary (wherever it is) carries the task.
						metrics.CancelledWork += busyAdd[id]
						settleCopy(id-n, victim, now, false)
						id = nxt
						continue
					}
					if hd.done[id] {
						// A losing primary in the drained queue: reclaim it.
						metrics.CancelledWork += busyAdd[id]
						id = nxt
						continue
					}
					hd.priIn[id] = false
					a.rearmHedge(id)
				}
				metrics.Handoffs++
				if el.mo != nil {
					el.mo.OnHandoff(id, victim, now)
				}
				if err := dispatch(id, now); err != nil {
					return err
				}
				id = nxt
			}
		}
		return nil
	}

	// applyScale replays one scale decision (scripted or autoscaled).
	applyScale := func(d int, now core.Time) error {
		if d > 0 {
			scaleUp(d, now)
			return nil
		}
		if d < 0 {
			return scaleDown(-d, now)
		}
		return nil
	}

	// elArrive evaluates the autoscaler at an arrival: feed the guard (unless
	// the overload config's arrival path already does) and apply its decision.
	elArrive := func(task core.Task) error {
		if el.ownGuard {
			el.guard.Observe(task.Release)
		}
		return applyScale(el.ctrl.Decide(task.Release, el.members, el.heating, el.minM, el.maxM), task.Release)
	}

	// trim sheds queued work from server j at instant now: victims are
	// ranked by the shed policy and dropped until the backlog is at most the
	// target, then the surviving suffix is re-timed in place. The running
	// head (curStart ≤ now) is never shed.
	trim := func(j int, now core.Time) {
		sh := ov.cfg.Shedder
		run := -1 // running head, exempt from shedding
		h := fq.head[j]
		if h >= 0 && curStart[h] <= now {
			run = h
			h = fq.next[h]
		}
		if h < 0 {
			return
		}
		backlog := st.Completion[j] - now
		target := sh.EffectiveTarget()
		if backlog <= target {
			return
		}
		cands := ov.cands[:0]
		pos := 0
		for id := h; id >= 0; id = fq.next[id] {
			rid := id
			if hd != nil && rid >= n {
				rid -= n // rank a speculative copy by its task's release/proc
			}
			cands = append(cands, overload.Candidate{
				ID: id, Release: inst.Tasks[rid].Release, Proc: inst.Tasks[rid].Proc, Pos: pos,
			})
			pos++
		}
		ov.cands = cands
		sh.Rank(now, cands)
		dropped := 0
		for _, c := range cands {
			if backlog <= target {
				break
			}
			backlog -= busyAdd[c.ID]
			st.QueueLen[j]--
			metrics.Busy[j] -= busyAdd[c.ID]
			if hd != nil && c.ID >= n {
				// Trimming a speculative copy cancels just the copy; the task
				// keeps its primary attempt and no shed disposition is taken.
				metrics.CancelledWork += busyAdd[c.ID]
				settleCopy(c.ID-n, j, now, false)
				dropped++
				continue
			}
			// A queued probe trimmed by the shedder resolves without an
			// outcome.
			rs.refundProbe(c.ID, j, now, events)
			shed(c.ID, j, now, ov.shedReason)
			if hd != nil {
				hd.priIn[c.ID] = false
				if hd.copyLive[c.ID] {
					// Kill the orphaned copy after the queue surgery below —
					// cancelAttempt re-times a queue, and this one is mid-trim.
					hd.kills = append(hd.kills, c.ID)
				}
			}
			dropped++
		}
		if dropped == 0 {
			return
		}
		// Unlink the shed tasks in place (preserving FIFO order of survivors).
		prev := run
		for id := h; id >= 0; {
			nxt := fq.next[id]
			gone := false
			if hd != nil && id >= n {
				gone = !hd.copyLive[id-n]
			} else {
				gone = metrics.Shed[id]
			}
			if gone {
				if prev < 0 {
					fq.head[j] = nxt
				} else {
					fq.next[prev] = nxt
				}
			} else {
				prev = id
			}
			id = nxt
		}
		fq.tail[j] = prev
		// Re-time the unstarted suffix back to back (the shared re-arm rule,
		// also used by the hedge layer's cancellations).
		a.retime(inst, slow, j, now)
		if hd != nil && len(hd.kills) > 0 {
			for _, id := range hd.kills {
				// A copy this same pass trimmed is already out of the queue
				// and settled; cancelling it again would reclaim its busy
				// time and queue slot twice.
				if hd.copyLive[id] {
					killCopy(id, now)
				}
			}
			hd.kills = hd.kills[:0]
		}
	}

	// arrive runs the per-arrival overload controls, in order: offered-load
	// tracking (brownout edge detection), watermark shedding (so admission
	// sees trimmed queues), then admission. It reports whether the task was
	// rejected.
	arrive := func(id int, task core.Task) bool {
		if g := ov.cfg.Guard; g != nil {
			g.Observe(task.Release)
			if b := g.Brownout(); b != ov.brown {
				ov.brown = b
				if b {
					metrics.Brownouts++
				}
				if ov.op != nil {
					ov.op.OnBrownout(task.Release, b)
				}
			}
		}
		// Every head's release is at least headFloor and float subtraction
		// is monotone, so an arrival within the watermark of the floor finds
		// no head to trim: the scan runs only past it, and recomputes the
		// floor as it goes (a trim's rekey lowers it for the heads it moves).
		if sh := ov.cfg.Shedder; sh.Enabled() && task.Release-a.headFloor > sh.Watermark {
			a.headFloor = core.Time(math.Inf(1))
			for j := 0; j < m; j++ {
				h := fq.head[j]
				if h < 0 {
					continue
				}
				rid := h
				if rid >= n {
					rid -= n // the waiting head may be a speculative copy
				}
				if task.Release-a.releases[rid] > sh.Watermark {
					trim(j, task.Release)
					if h = fq.head[j]; h < 0 {
						continue
					}
				}
				a.lowerFloor(h)
			}
		}
		if ap := ov.cfg.Admission; ap != nil {
			ov.view.Now = task.Release
			if ok, reason := ap.Admit(&ov.view, task); !ok {
				reject(id, task.Release, reason)
				return true
			}
		}
		return false
	}

	next := 0 // next arrival index
	for {
		if next >= n && events.Len() == 0 {
			// Only completions remain. Settling them can still move a
			// breaker — a close wakes parked work (whose fresh completions
			// extend the run), an open arms a cooldown — so the loop goes
			// on while events appear.
			drain(core.Time(math.Inf(1)))
			if events.Len() == 0 {
				break
			}
		}
		if events.Len() > 0 {
			when, _ := events.Peek()
			if next >= n || when <= inst.Tasks[next].Release {
				st.Now = when
				drain(when)
				if rs != nil && events.Len() > 0 {
					// The drain yielded to an earlier breaker event it
					// armed; restart the loop so that event pops first,
					// in time order.
					if w2, _ := events.Peek(); w2 < when {
						continue
					}
				}
				when, ev := events.Pop()
				st.Now = when
				switch ev.kind {
				case evDown:
					fail(ev.server, when)
				case evUp:
					if err := restore(ev.server, when); err != nil {
						return nil, nil, err
					}
				case evRetry:
					if err := dispatch(ev.task, when); err != nil {
						return nil, nil, err
					}
				case evScale:
					if err := applyScale(ev.task, when); err != nil {
						return nil, nil, err
					}
				case evJoin:
					if err := join(ev.server, when); err != nil {
						return nil, nil, err
					}
				case evHedge:
					if err := hedgeIssue(ev.task, when); err != nil {
						return nil, nil, err
					}
				case evTied:
					tiedResolve(ev.task, when)
				case evBreaker:
					if rs != nil && rs.brk != nil {
						// Cooldown expiry: the timed open → half-open
						// transition fires here (and only here, so the state
						// stream is a pure function of the event sequence). A
						// close pushes a same-instant event through this case
						// too; either way newly admissible capacity exists, so
						// wake parked work. Stale events (the breaker
						// re-opened meanwhile) tick to a no-op.
						if rs.brk.Tick(ev.server, when) {
							rs.halfOpened(ev.server, when)
						}
						if err := wake(-1, when); err != nil {
							return nil, nil, err
						}
					}
				}
				continue
			}
		}
		task := inst.Tasks[next]
		st.Now = task.Release
		drain(st.Now)
		if rs != nil && events.Len() > 0 {
			// The drain yielded to a breaker event due at or before this
			// arrival; restart the loop so the event branch takes it first.
			if te, _ := events.Peek(); te <= task.Release {
				continue
			}
		}
		if probe != nil {
			probe.OnArrival(next, task.Release)
		}
		if el != nil && el.ctrl != nil {
			if err := elArrive(task); err != nil {
				return nil, nil, err
			}
		}
		if ov != nil && arrive(next, task) {
			next++
			continue
		}
		if err := dispatch(next, task.Release); err != nil {
			return nil, nil, err
		}
		next++
	}
	a.parked = parked[:0] // keep a re-grown backing for the next run

	metrics.Horizon = metrics.Makespan
	if end := plan.End(); end > metrics.Horizon {
		metrics.Horizon = end
	}
	a.downtime = plan.NormalDowntimeInto(a.downtime, metrics.Horizon)
	metrics.Downtime = a.downtime
	if el != nil {
		metrics.MachineHours = el.ms.MachineHours(metrics.Horizon)
	}
	if rs != nil && rs.brk != nil {
		// Assigned at the end: the opens above may have regrown the backing.
		metrics.BreakerSpans = rs.spans
	}
	if probe != nil {
		probe.OnDone(metrics.Makespan)
	}
	return sched, metrics, nil
}

// candidates returns the servers attempt aid (task id, or its hedge copy
// n + id) may be placed on at this instant: the one candidate rule, shared
// by primaries and copies. On elastic runs the task's set is first
// remapped onto the active subring. The mandatory filters then drop
// crashed servers, servers whose breaker refuses the attempt (a primary
// may take a free half-open probe slot, a copy only a closed breaker) and
// the primary's own server pj (−1: none). The ejector's advisory
// preference applies last: it keeps the non-ejected candidates when any
// exist, so ejection alone never parks work. ok is false when no server
// may take the attempt. With nothing to filter the set passes through (nil
// is the full set; sets are validated non-empty and a remap keeps at least
// one active member); otherwise the result is arena scratch, valid until
// the next call.
func (a *Arena) candidates(inst *core.Instance, el *elRun, ov *ovRun, rs *rsRun, aid, pj int) (cands core.ProcSet, ok bool) {
	id := aid
	if id >= len(inst.Tasks) {
		id -= len(inst.Tasks)
	}
	hedgeCopy := id != aid
	set := inst.Tasks[id].Set
	if el != nil {
		k := len(set)
		if set == nil {
			k = el.members
		}
		set = elastic.Effective(el.active, el.primary[id], k, el.effBuf)
		el.effBuf = set
	}
	ejecting := ov != nil && ov.cfg.Ejector != nil && ov.cfg.Ejector.NumEjected() > 0
	var brk *resilience.Breakers
	if rs != nil {
		brk = rs.brk
	}
	if !hedgeCopy && a.down == 0 && brk == nil && !ejecting {
		return set, true
	}
	out := a.liveBuf[:0]
	size := len(set)
	if set == nil {
		size = a.st.M
	}
	for i := 0; i < size; i++ {
		j := i
		if set != nil {
			j = set[i]
		}
		if j == pj || !a.live[j] {
			continue
		}
		if brk != nil && brk.State(j) != resilience.Closed && (hedgeCopy || !brk.Allow(j)) {
			continue
		}
		out = append(out, j)
	}
	if ejecting {
		keep := ov.ejBuf[:0]
		for _, j := range out {
			if !ov.view.Ejected[j] {
				keep = append(keep, j)
			}
		}
		if len(keep) > 0 {
			out = keep
		}
	}
	return out, len(out) > 0
}

// place picks the server of attempt aid (task id, or its hedge copy n + id)
// among cands at instant now and times the attempt there: the one
// placement path, shared by dispatch and copy issue. The router sees the
// task released at now (an attempt cannot start earlier) with cands as its
// set; a pick outside cands or of a crashed server is a routing error. On a
// gray server work advances at rate 1/Factor inside its slowdown segments,
// so the end comes from the piecewise integration and all of [start, end)
// is busy time.
func (a *Arena) place(inst *core.Instance, router Router, slow [][]faults.Slowdown, cands core.ProcSet, aid int, now core.Time) (j int, start, end, busy core.Time, err error) {
	id, what := aid, "task"
	if id >= len(inst.Tasks) {
		id, what = id-len(inst.Tasks), "hedge copy of task"
	}
	view := inst.Tasks[id]
	view.Set = cands
	view.Release = now
	if a.memberEFT && cands != nil {
		j, _ = memberPick(cands, now, a.st.Completion, a.eftLast)
	} else {
		j = router.Pick(&a.st, view)
	}
	if j < 0 || j >= a.st.M || !view.Eligible(j) {
		return j, 0, 0, 0, fmt.Errorf("sim: router %s picked invalid server M%d for %s %d (live set %v)",
			router.Name(), j+1, what, id, view.Set)
	}
	if !a.live[j] {
		return j, 0, 0, 0, fmt.Errorf("sim: router %s picked dead server M%d for %s %d at t=%v",
			router.Name(), j+1, what, id, now)
	}
	start = a.st.Completion[j]
	if now > start {
		start = now
	}
	end = start + view.Proc
	busy = view.Proc
	if slow != nil && len(slow[j]) > 0 {
		end = faults.FinishTime(slow[j], start, view.Proc)
		busy = end - start
	}
	return j, start, end, busy, nil
}
