package chaos

import (
	"math"
	"reflect"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/sim"
)

func nanEqTimes(a, b []core.Time) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(float64(a[i])) && math.IsNaN(float64(b[i]))) {
			return false
		}
	}
	return true
}

// TestSoakArenaReuseEquivalence is the chaos-side half of the arena's
// correctness story: 200 sampled trials — the soak's own parameter
// distribution, so crash/zone/gray plans, every overload mode and membership
// churn all appear — run through ONE reused arena must be output-identical
// to the same trials run with a fresh arena each. This is exactly the state
// the pooled arenas in Check see mid-soak.
func TestSoakArenaReuseEquivalence(t *testing.T) {
	cfg := Config{Trials: 200, Seed: 7}
	reused := sim.NewArena()
	routers := DefaultRouters()
	for trial := 0; trial < cfg.Trials; trial++ {
		p := SampleParams(cfg, trial)
		inst, plan, err := p.Build()
		if err != nil {
			t.Fatalf("trial %d: build: %v", trial, err)
		}
		spec, err := p.routerSpec(routers)
		if err != nil {
			t.Fatalf("trial %d: router: %v", trial, err)
		}
		run := func(arena *sim.Arena) (*core.Schedule, *sim.ElasticMetrics) {
			ocfg, err := p.overloadConfig()
			if err != nil {
				t.Fatalf("trial %d: overload config: %v", trial, err)
			}
			s, em, err := arena.Run(inst, spec.New(p.RouterSeed), sim.Config{Plan: plan, Retry: p.Policy, Overload: ocfg, Elastic: p.elasticConfig(inst.M)})
			if err != nil {
				t.Fatalf("trial %d: run: %v", trial, err)
			}
			return s, em
		}
		sF, mF := run(sim.NewArena())
		sR, mR := run(reused)
		switch {
		case !reflect.DeepEqual(sF.Machine, sR.Machine) || !nanEqTimes(sF.Start, sR.Start):
			t.Fatalf("trial %d (%s): schedule diverges under arena reuse", trial, p.Router)
		case !nanEqTimes(mF.Flows, mR.Flows) || !nanEqTimes(mF.Busy, mR.Busy):
			t.Fatalf("trial %d (%s): flow metrics diverge under arena reuse", trial, p.Router)
		case !reflect.DeepEqual(mF.Dropped, mR.Dropped) ||
			!reflect.DeepEqual(mF.Rejected, mR.Rejected) ||
			!reflect.DeepEqual(mF.Shed, mR.Shed) ||
			!reflect.DeepEqual(mF.Attempts, mR.Attempts):
			t.Fatalf("trial %d (%s): robustness metrics diverge under arena reuse", trial, p.Router)
		case !reflect.DeepEqual(mF.Membership, mR.Membership) || !nanEqTimes(mF.Dispatched, mR.Dispatched):
			t.Fatalf("trial %d (%s): membership log diverges under arena reuse", trial, p.Router)
		}
	}
}
