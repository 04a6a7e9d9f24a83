package chaos

import (
	"fmt"

	"flowsched/internal/core"
	"flowsched/internal/elastic"
	"flowsched/internal/faults"
	"flowsched/internal/hedge"
)

// dropChunks is the ddmin step every list of a configuration shrinks
// through: it tries dropping chunks of xs, halving the chunk size from half
// the list down to single elements, and keeps each removal under which fails
// still reports the failure. fails receives a fresh slice, nil when empty.
func dropChunks[T any](xs []T, fails func([]T) bool) bool {
	dropped := false
	for chunk := (len(xs) + 1) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i < len(xs); {
			end := min(i+chunk, len(xs))
			var cand []T
			if rest := len(xs) - (end - i); rest > 0 {
				cand = append(append(make([]T, 0, rest), xs[:i]...), xs[end:]...)
			}
			if fails(cand) {
				xs, dropped = cand, true // the next chunk slid into position i
			} else {
				i += chunk
			}
		}
	}
	return dropped
}

// shrinker holds the configuration being minimized. Each step proposes
// candidates derived from it and adopts every one the oracle still sees
// failing; a step reports whether it adopted any.
type shrinker struct {
	inst  *core.Instance
	plan  *faults.Plan
	p     Params
	fails func(*core.Instance, *faults.Plan, Params) bool
}

// try adopts the candidate when it still fails.
func (s *shrinker) try(inst *core.Instance, plan *faults.Plan, p Params) bool {
	if !s.fails(inst, plan, p) {
		return false
	}
	s.inst, s.plan, s.p = inst, plan, p
	return true
}

// pass runs steps in order and reports whether any of them adopted a
// candidate.
func pass(steps []func() bool) bool {
	kept := false
	for _, step := range steps {
		if step() {
			kept = true
		}
	}
	return kept
}

// structure is the structural pass: drop tasks, outages and slowdowns, then
// halve the cluster.
func (s *shrinker) structure() []func() bool {
	return []func() bool{
		s.tasks,
		func() bool { return segments(s, func(p *faults.Plan) *[]faults.Outage { return &p.Outages }) },
		func() bool { return segments(s, func(p *faults.Plan) *[]faults.Slowdown { return &p.Slowdowns }) },
		s.machines,
	}
}

// params is the params pass: drop scale events, then peel the hedge and
// resilience layers (paramEdits).
func (s *shrinker) params() []func() bool {
	steps := []func() bool{s.script}
	for _, edit := range paramEdits {
		steps = append(steps, func() bool {
			p := s.p
			return edit(&p) && s.try(s.inst, s.plan, p)
		})
	}
	return steps
}

// tasks drops chunks of the instance's tasks.
func (s *shrinker) tasks() bool {
	m := s.inst.M
	return dropChunks(s.inst.Tasks, func(ts []core.Task) bool {
		return s.try(core.NewInstance(m, ts), s.plan, s.p)
	})
}

// segments drops chunks of one of the plan's segment lists.
func segments[T any](s *shrinker, list func(*faults.Plan) *[]T) bool {
	if s.plan == nil {
		return false
	}
	return dropChunks(*list(s.plan), func(xs []T) bool {
		plan := *s.plan
		*list(&plan) = xs
		return s.try(s.inst, &plan, s.p)
	})
}

// machines halves the cluster while the halved configuration still fails:
// tasks whose processing set does not fit the smaller cluster are dropped,
// and fault segments on removed servers are clipped.
func (s *shrinker) machines() bool {
	kept := false
	for m2 := s.inst.M / 2; m2 >= 1; m2 /= 2 {
		var fit []core.Task
		for _, t := range s.inst.Tasks {
			if t.Set == nil || t.Set.Max() < m2 {
				fit = append(fit, t)
			}
		}
		if !s.try(core.NewInstance(m2, fit), clipPlan(s.plan, m2), s.p) {
			break
		}
		kept = true
	}
	return kept
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

// script drops chunks of the membership script's scale events.
func (s *shrinker) script() bool {
	if s.p.Elastic == nil {
		return false
	}
	return dropChunks(s.p.Elastic.Script, func(events []elastic.Event) bool {
		p, ep := s.p, *s.p.Elastic
		ep.Script = events
		p.Elastic = &ep
		return s.try(s.inst, s.plan, p)
	})
}

// paramEdits are the params simplifications, tried once each in order: drop
// the hedge layer, then peel its knobs — the MaxHedges cap,
// cancel-mid-service, the quantile trigger (replaced by a plain delay), tied
// mode; then the same for the resilience layer — the circuit breakers, the
// slow-completion classifier, the retry budget, the jitter. Dropping a layer
// leaves its knobs nothing to peel.
var paramEdits = []func(*Params) bool{
	drop(hedgeLayer),
	peel(hedgeLayer, func(h *hedge.Config) bool { on := h.MaxHedges != 0; h.MaxHedges = 0; return on }),
	peel(hedgeLayer, func(h *hedge.Config) bool { on := h.CancelRunning; h.CancelRunning = false; return on }),
	peel(hedgeLayer, func(h *hedge.Config) bool {
		on := h.Quantile != 0
		h.Quantile, h.MinSamples, h.Delay = 0, 0, 1
		return on
	}),
	peel(hedgeLayer, func(h *hedge.Config) bool { on := h.Tied; h.Tied, h.Delay = false, 1; return on }),
	drop(resilienceLayer),
	peel(resilienceLayer, func(r *ResilienceParams) bool {
		on := r.BreakerWindow != 0
		r.BreakerWindow, r.FailureThreshold, r.Cooldown, r.HalfOpenProbes, r.SlowFactor = 0, 0, 0, 0, 0
		return on
	}),
	peel(resilienceLayer, func(r *ResilienceParams) bool { on := r.SlowFactor != 0; r.SlowFactor = 0; return on }),
	peel(resilienceLayer, func(r *ResilienceParams) bool {
		on := r.RetryBudget != 0
		r.RetryBudget, r.BudgetBurst = 0, 0
		return on
	}),
	peel(resilienceLayer, func(r *ResilienceParams) bool { on := r.Jitter != ""; r.Jitter = ""; return on }),
}

// hedgeLayer and resilienceLayer locate the optional layers drop and peel edit.
func hedgeLayer(p *Params) **hedge.Config          { return &p.Hedge }
func resilienceLayer(p *Params) **ResilienceParams { return &p.Resilience }

// drop is the params edit that switches an optional layer off.
func drop[L any](layer func(*Params) **L) func(*Params) bool {
	return func(p *Params) bool {
		l := layer(p)
		if *l == nil {
			return false
		}
		*l = nil
		return true
	}
}

// peel is the params edit that turns one knob of an optional layer off on a
// copy of the layer; knob turns it off and reports whether it was on.
func peel[L any](layer func(*Params) **L, knob func(*L) bool) func(*Params) bool {
	return func(p *Params) bool {
		l := layer(p)
		if *l == nil {
			return false
		}
		c := **l
		if !knob(&c) {
			return false
		}
		*l = &c
		return true
	}
}

// ShrinkFailure rebuilds the failing trial from its params, shrinks it and
// packages the result as a replayable repro. The schedule is the structural
// pass until a pass keeps nothing, the params pass once, and the structural
// pass again to a fixpoint if the params pass kept anything. The oracle
// re-runs the full Check (simulate + audit + probe cross-check) under the
// trial's router, capped at cfg.ShrinkBudget candidate simulations, and
// accepts a candidate only when its first violation names the same
// invariant as the trial's: a smaller configuration that fails some other
// way (a cluster halved below what an overload estimator was built for,
// say) is a different bug, and following it would leave a repro that
// replays that bug instead.
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
	orig := Check(inst, plan, spec, p, nil)
	if len(orig) == 0 {
		return nil, fmt.Errorf("chaos: trial %d is not failing under its own params", p.Trial)
	}
	budget := cfg.ShrinkBudget - 1
	s := &shrinker{inst: inst, plan: plan, p: p, fails: func(i *core.Instance, pl *faults.Plan, cand Params) bool {
		if budget <= 0 {
			return false
		}
		budget--
		vs := Check(i, pl, spec, cand, nil)
		return len(vs) > 0 && vs[0].Invariant == orig[0].Invariant
	}}
	structure := s.structure()
	for pass(structure) {
	}
	if pass(s.params()) {
		for pass(structure) {
		}
	}
	violations := Check(s.inst, s.plan, spec, s.p, nil)
	if len(violations) == 0 {
		return nil, fmt.Errorf("chaos: trial %d: shrunk configuration no longer fails", p.Trial)
	}
	return NewRepro(s.p, s.inst, s.plan, violations)
}
