package chaos

import (
	"fmt"

	"flowsched/internal/core"
	"flowsched/internal/elastic"
	"flowsched/internal/faults"
)

// Shrink minimizes a failing configuration with a ddmin-style greedy loop:
// it repeatedly tries to drop task chunks, drop outage and slowdown
// segments, and halve the cluster, keeping any change under which failing
// still reports a failure, until a full pass makes no progress. failing is
// the oracle — typically a closure over Check with the trial's router and
// policy; it must be deterministic for the result to be minimal and
// reproducible.
func Shrink(inst *core.Instance, plan *faults.Plan, failing func(*core.Instance, *faults.Plan) bool) (*core.Instance, *faults.Plan) {
	cur, curPlan := inst, plan
	for {
		changed := false
		if c, ok := shrinkTasks(cur, curPlan, failing); ok {
			cur, changed = c, true
		}
		if p, ok := shrinkSegments(cur, curPlan, failing); ok {
			curPlan, changed = p, true
		}
		if c, p, ok := shrinkMachines(cur, curPlan, failing); ok {
			cur, curPlan, changed = c, p, true
		}
		if !changed {
			return cur, curPlan
		}
	}
}

// shrinkTasks drops chunks of tasks, halving the chunk size down to single
// tasks, keeping every removal that preserves the failure.
func shrinkTasks(inst *core.Instance, plan *faults.Plan, failing func(*core.Instance, *faults.Plan) bool) (*core.Instance, bool) {
	tasks := inst.Tasks
	shrunk := false
	for chunk := (len(tasks) + 1) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i < len(tasks); {
			end := i + chunk
			if end > len(tasks) {
				end = len(tasks)
			}
			cand := make([]core.Task, 0, len(tasks)-(end-i))
			cand = append(cand, tasks[:i]...)
			cand = append(cand, tasks[end:]...)
			ni := core.NewInstance(inst.M, cand)
			if failing(ni, plan) {
				tasks = ni.Tasks
				shrunk = true
				// Do not advance: the next chunk slid into position i.
			} else {
				i += chunk
			}
		}
	}
	if !shrunk {
		return inst, false
	}
	return core.NewInstance(inst.M, tasks), true
}

// shrinkSegments drops outages and slowdowns from the plan one chunk at a
// time, same policy as shrinkTasks.
func shrinkSegments(inst *core.Instance, plan *faults.Plan, failing func(*core.Instance, *faults.Plan) bool) (*faults.Plan, bool) {
	if plan.IsEmpty() {
		return plan, false
	}
	cur := plan.Clone()
	shrunk := false
	for chunk := (len(cur.Outages) + 1) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i < len(cur.Outages); {
			end := i + chunk
			if end > len(cur.Outages) {
				end = len(cur.Outages)
			}
			cand := cur.Clone()
			cand.Outages = append(cand.Outages[:i], cand.Outages[end:]...)
			if failing(inst, cand) {
				cur = cand
				shrunk = true
			} else {
				i += chunk
			}
		}
	}
	for chunk := (len(cur.Slowdowns) + 1) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i < len(cur.Slowdowns); {
			end := i + chunk
			if end > len(cur.Slowdowns) {
				end = len(cur.Slowdowns)
			}
			cand := cur.Clone()
			cand.Slowdowns = append(cand.Slowdowns[:i], cand.Slowdowns[end:]...)
			if failing(inst, cand) {
				cur = cand
				shrunk = true
			} else {
				i += chunk
			}
		}
	}
	if !shrunk {
		return plan, false
	}
	return cur, true
}

// shrinkMachines halves the cluster: tasks whose processing set does not
// fit in the smaller cluster are dropped, fault segments on removed servers
// are clipped. Repeats while the halved configuration still fails.
func shrinkMachines(inst *core.Instance, plan *faults.Plan, failing func(*core.Instance, *faults.Plan) bool) (*core.Instance, *faults.Plan, bool) {
	cur, curPlan := inst, plan
	shrunk := false
	for m2 := cur.M / 2; m2 >= 1; m2 /= 2 {
		var cand []core.Task
		for _, t := range cur.Tasks {
			if t.Set == nil || t.Set.Max() < m2 {
				cand = append(cand, t)
			}
		}
		ni := core.NewInstance(m2, cand)
		np := clipPlan(curPlan, m2)
		if !failing(ni, np) {
			break
		}
		cur, curPlan = ni, np
		shrunk = true
	}
	return cur, curPlan, shrunk
}

// clipPlan restricts a plan to the first m2 servers (nil stays nil).
func clipPlan(plan *faults.Plan, m2 int) *faults.Plan {
	if plan == nil {
		return nil
	}
	out := &faults.Plan{M: m2}
	for _, o := range plan.Outages {
		if o.Server < m2 {
			out.Outages = append(out.Outages, o)
		}
	}
	for _, s := range plan.Slowdowns {
		if s.Server < m2 {
			out.Slowdowns = append(out.Slowdowns, s)
		}
	}
	return out
}

// shrinkScript drops scale events from the params' membership script,
// chunked like shrinkTasks, keeping every removal that preserves the
// failure. It returns the (possibly) reduced params and whether anything was
// dropped.
func shrinkScript(p Params, failing func(Params) bool) (Params, bool) {
	if p.Elastic == nil || len(p.Elastic.Script) == 0 {
		return p, false
	}
	events := p.Elastic.Script
	shrunk := false
	for chunk := (len(events) + 1) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i < len(events); {
			end := i + chunk
			if end > len(events) {
				end = len(events)
			}
			var cand []elastic.Event // nil when empty, matching a JSON round trip
			if len(events) > end-i {
				cand = make([]elastic.Event, 0, len(events)-(end-i))
				cand = append(cand, events[:i]...)
				cand = append(cand, events[end:]...)
			}
			cp := p
			ce := *p.Elastic
			ce.Script = cand
			cp.Elastic = &ce
			if failing(cp) {
				events = cand
				p = cp
				shrunk = true
			} else {
				i += chunk
			}
		}
	}
	return p, shrunk
}

// shrinkHedge simplifies the params' hedge config with a ddmin-style pass:
// drop hedging entirely (proving the failure is not hedge-related), then
// peel individual knobs — the MaxHedges cap, cancel-mid-service, the
// quantile trigger (replaced by a plain delay), tied mode — keeping every
// simplification under which the trial still fails.
func shrinkHedge(p Params, failing func(Params) bool) (Params, bool) {
	if p.Hedge == nil {
		return p, false
	}
	shrunk := false
	try := func(mutate func(*HedgeParams) bool) {
		if p.Hedge == nil {
			return
		}
		cp := p
		hp := *p.Hedge
		if !mutate(&hp) {
			return // knob not set; nothing to peel
		}
		cp.Hedge = &hp
		if failing(cp) {
			p = cp
			shrunk = true
		}
	}
	// Dropping the hedge outright dominates every other simplification.
	cp := p
	cp.Hedge = nil
	if failing(cp) {
		return cp, true
	}
	try(func(hp *HedgeParams) bool {
		if hp.MaxHedges == 0 {
			return false
		}
		hp.MaxHedges = 0
		return true
	})
	try(func(hp *HedgeParams) bool {
		if !hp.CancelRunning {
			return false
		}
		hp.CancelRunning = false
		return true
	})
	try(func(hp *HedgeParams) bool {
		if hp.Quantile == 0 {
			return false
		}
		hp.Quantile, hp.MinSamples, hp.Delay = 0, 0, 1
		return true
	})
	try(func(hp *HedgeParams) bool {
		if !hp.Tied {
			return false
		}
		hp.Tied = false
		hp.Delay = 1
		return true
	})
	return p, shrunk
}

// shrinkResilience simplifies the params' resilience config with a
// ddmin-style pass: drop the protections entirely (proving the failure is
// not resilience-related), then peel individual mechanisms — the circuit
// breakers, the slow-completion classifier, the retry budget, the jitter —
// keeping every simplification under which the trial still fails.
func shrinkResilience(p Params, failing func(Params) bool) (Params, bool) {
	if p.Resilience == nil {
		return p, false
	}
	shrunk := false
	try := func(mutate func(*ResilienceParams) bool) {
		cp := p
		rp := *p.Resilience
		if !mutate(&rp) {
			return // mechanism not enabled; nothing to peel
		}
		cp.Resilience = &rp
		if failing(cp) {
			p = cp
			shrunk = true
		}
	}
	// Dropping the protections outright dominates every other simplification.
	cp := p
	cp.Resilience = nil
	if failing(cp) {
		return cp, true
	}
	try(func(rp *ResilienceParams) bool {
		if rp.BreakerWindow == 0 {
			return false
		}
		rp.BreakerWindow, rp.FailureThreshold, rp.Cooldown = 0, 0, 0
		rp.HalfOpenProbes, rp.SlowFactor = 0, 0
		return true
	})
	try(func(rp *ResilienceParams) bool {
		if rp.SlowFactor == 0 {
			return false
		}
		rp.SlowFactor = 0
		return true
	})
	try(func(rp *ResilienceParams) bool {
		if rp.RetryBudget == 0 {
			return false
		}
		rp.RetryBudget, rp.BudgetBurst = 0, 0
		return true
	})
	try(func(rp *ResilienceParams) bool {
		if rp.Jitter == "" {
			return false
		}
		rp.Jitter = ""
		return true
	})
	return p, shrunk
}

// ShrinkFailure rebuilds the failing trial from its params, shrinks it and
// packages the result as a replayable repro. The shrink oracle re-runs the
// full Check (simulate + audit + probe cross-check) under the trial's
// router and policy, capped at cfg.ShrinkBudget candidate simulations, and
// accepts a candidate only when its first violation names the same
// invariant as the trial's: a smaller configuration that fails some other
// way (a cluster halved below what an overload estimator was built for,
// say) is a different bug, and following it would leave a repro that
// replays that bug instead. Membership-churn trials additionally get their
// scale script minimized, and the repro's params carry the reduced script.
func ShrinkFailure(cfg Config, p Params) (*Repro, error) {
	cfg = cfg.withDefaults()
	inst, plan, err := p.Build()
	if err != nil {
		return nil, err
	}
	spec, err := p.routerSpec(cfg.Routers)
	if err != nil {
		return nil, err
	}
	orig := Check(inst, plan, spec, p)
	if len(orig) == 0 {
		return nil, fmt.Errorf("chaos: trial %d is not failing under its own params", p.Trial)
	}
	budget := cfg.ShrinkBudget - 1
	reproduces := func(i *core.Instance, pl *faults.Plan, cand Params) bool {
		if budget <= 0 {
			return false
		}
		budget--
		vs := Check(i, pl, spec, cand)
		return len(vs) > 0 && vs[0].Invariant == orig[0].Invariant
	}
	failing := func(i *core.Instance, pl *faults.Plan) bool { return reproduces(i, pl, p) }
	mi, mp := Shrink(inst, plan, failing)
	// Minimize the membership script, the hedge config and the resilience
	// config too, then give the structural shrinker one more pass under the
	// reduced params (failing closes over p, so it sees the updates).
	paramsFail := func(cand Params) bool { return reproduces(mi, mp, cand) }
	reduced := false
	if p2, ok := shrinkScript(p, paramsFail); ok {
		p, reduced = p2, true
	}
	if p2, ok := shrinkHedge(p, paramsFail); ok {
		p, reduced = p2, true
	}
	if p2, ok := shrinkResilience(p, paramsFail); ok {
		p, reduced = p2, true
	}
	if reduced {
		mi, mp = Shrink(mi, mp, failing)
	}
	violations := Check(mi, mp, spec, p)
	if len(violations) == 0 {
		return nil, fmt.Errorf("chaos: trial %d: shrunk configuration no longer fails", p.Trial)
	}
	return NewRepro(p, mi, mp, violations)
}
