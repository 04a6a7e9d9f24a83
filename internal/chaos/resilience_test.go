package chaos

import (
	"encoding/json"
	"reflect"
	"testing"

	"flowsched/internal/resilience"
)

// TestSampleParamsResilienceCoverage: the sampler exercises every jitter
// mode plus budgeted and breakered configurations, and each sampled config
// validates — an invalid config would make the whole trial error out as a
// sim-error instead of testing anything.
func TestSampleParamsResilienceCoverage(t *testing.T) {
	cfg := Config{Seed: 7}
	resilient := 0
	jitters := map[resilience.JitterMode]int{}
	budgeted, breakered, slow := 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		p := SampleParams(cfg, trial)
		if p.Resilience == nil {
			continue
		}
		resilient++
		rp := p.Resilience
		jitters[resilience.JitterMode(rp.Jitter)]++
		if rp.RetryBudget > 0 {
			budgeted++
		}
		if rp.BreakerWindow > 0 {
			breakered++
			if rp.SlowFactor > 0 {
				slow++
			}
		}
		if err := p.resilienceConfig().Validate(); err != nil {
			t.Fatalf("trial %d: sampled resilience config invalid: %v (%+v)", trial, err, rp)
		}
	}
	if resilient < 50 {
		t.Fatalf("only %d/300 trials sampled resilience", resilient)
	}
	for _, mode := range []resilience.JitterMode{resilience.JitterNone, resilience.JitterFull, resilience.JitterEqual, resilience.JitterDecorrelated} {
		if jitters[mode] == 0 {
			t.Fatalf("jitter mode %q never sampled: %v", mode, jitters)
		}
	}
	if budgeted == 0 || breakered == 0 || slow == 0 {
		t.Fatalf("resilience features not covered: budgeted=%d breakered=%d slowFactor=%d",
			budgeted, breakered, slow)
	}
}

// TestResilientTrialCaughtAndShrunk: a corrupting router on a resilient
// trial is caught by the auditor, and — since the failure does not depend on
// retry shaping — the shrinker peels the resilience config away entirely
// alongside the usual task/plan minimization.
func TestResilientTrialCaughtAndShrunk(t *testing.T) {
	cfg := Config{Routers: brokenRouters()}
	p := Params{
		Trial: 9, Seed: 9999,
		M: 5, N: 50, K: 2,
		Load: 1.5, Dist: "constant", Strategy: "overlapping",
		Router: "corrupting", FaultMode: "none",
		Resilience: &ResilienceParams{
			Jitter: "equal", RetryBudget: 0.2, BudgetBurst: 5,
			BreakerWindow: 5, FailureThreshold: 0.5, Cooldown: 2, HalfOpenProbes: 2,
		},
	}
	inst, plan, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := p.routerSpec(cfg.Routers)
	if err != nil {
		t.Fatal(err)
	}
	vs := Check(inst, plan, spec, p, nil)
	if len(vs) == 0 {
		t.Fatal("corrupting router not caught on a resilient trial")
	}
	repro, err := ShrinkFailure(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if repro.N() > 5 {
		t.Fatalf("shrunk repro has %d tasks, want ≤ 5", repro.N())
	}
	if repro.Params.Resilience != nil {
		t.Fatalf("resilience-independent failure kept its resilience config: %+v", repro.Params.Resilience)
	}
	vs2, err := repro.Replay(cfg.Routers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs2) == 0 {
		t.Fatal("shrunk repro does not replay")
	}
}

// TestResilienceParamsRoundTrip: resilience params survive the repro JSON
// round trip bit for bit, so a shrunk resilient failure replays under the
// same config — and an unconfigured Params builds no config at all.
func TestResilienceParamsRoundTrip(t *testing.T) {
	p := Params{
		Trial: 1, Seed: 2, M: 4, N: 8, K: 2,
		Load: 0.9, Dist: "constant", Strategy: "disjoint",
		Router: "EFT-Min", FaultMode: "none",
		Resilience: &ResilienceParams{
			Jitter: "decorrelated", RetryBudget: 0.25, BudgetBurst: 4,
			BreakerWindow: 6, FailureThreshold: 0.75, Cooldown: 1.5,
			HalfOpenProbes: 3, SlowFactor: 4,
		},
	}
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Params
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, p) {
		t.Fatalf("params changed in round trip:\n%+v\n%+v", back, p)
	}
	cfg := p.resilienceConfig()
	if cfg == nil || cfg.Jitter != resilience.JitterDecorrelated || cfg.RetryBudget != 0.25 ||
		cfg.Seed != p.Seed || cfg.Breaker == nil || cfg.Breaker.Window != 6 ||
		cfg.Breaker.SlowFactor != 4 {
		t.Fatalf("resilienceConfig = %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if (Params{}).resilienceConfig() != nil {
		t.Fatal("unconfigured params built a resilience config")
	}
}
