package chaos

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"flowsched/internal/hedge"
)

// TestSampleParamsHedgeCoverage: the sampler exercises every hedge trigger
// style, and each sampled config validates — a triggerless config would make
// the whole trial error out as a sim-error.
func TestSampleParamsHedgeCoverage(t *testing.T) {
	cfg := Config{Seed: 7}
	hedged, tied, quantile, delay, capped, cancel := 0, 0, 0, 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		p := SampleParams(cfg, trial)
		if p.Hedge == nil {
			continue
		}
		hedged++
		switch {
		case p.Hedge.Tied:
			tied++
		case p.Hedge.Quantile > 0:
			quantile++
		default:
			delay++
		}
		if p.Hedge.MaxHedges > 0 {
			capped++
		}
		if p.Hedge.CancelRunning {
			cancel++
		}
		if err := p.Hedge.Validate(); err != nil {
			t.Fatalf("trial %d: sampled hedge config invalid: %v (%+v)", trial, err, p.Hedge)
		}
	}
	if hedged < 50 {
		t.Fatalf("only %d/300 trials sampled hedging", hedged)
	}
	if tied == 0 || quantile == 0 || delay == 0 || capped == 0 || cancel == 0 {
		t.Fatalf("trigger styles not covered: tied=%d quantile=%d delay=%d capped=%d cancel=%d",
			tied, quantile, delay, capped, cancel)
	}
}

// TestHedgedTrialCaughtAndShrunk: a corrupting router on a hedged trial is
// caught by the auditor, and — since this failure does not depend on
// hedging — the shrinker peels the hedge config away entirely alongside the
// usual task/plan minimization.
func TestHedgedTrialCaughtAndShrunk(t *testing.T) {
	cfg := Config{Routers: brokenRouters()}
	p := Params{
		Trial: 9, Seed: 9999,
		M: 5, N: 50, K: 2,
		Load: 1.5, Dist: "constant", Strategy: "overlapping",
		Router: "corrupting", FaultMode: "none",
		Hedge: &hedge.Config{Quantile: 0.9, MinSamples: 5, MaxHedges: 10, CancelRunning: true},
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
		t.Fatal("corrupting router not caught on a hedged trial")
	}
	repro, err := ShrinkFailure(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if repro.N() > 5 {
		t.Fatalf("shrunk repro has %d tasks, want ≤ 5", repro.N())
	}
	if repro.Params.Hedge != nil {
		t.Fatalf("hedge-independent failure kept its hedge config: %+v", repro.Params.Hedge)
	}
	vs2, err := repro.Replay(cfg.Routers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs2) == 0 {
		t.Fatal("shrunk repro does not replay")
	}
}

// TestHedgeParamsRoundTrip: hedge params survive the repro JSON round trip
// bit for bit, under the field names repro files carry, so a shrunk hedged
// failure replays under the same config.
func TestHedgeParamsRoundTrip(t *testing.T) {
	p := Params{
		Trial: 1, Seed: 2, M: 4, N: 8, K: 2,
		Load: 0.9, Dist: "constant", Strategy: "disjoint",
		Router: "EFT-Min", FaultMode: "none",
		Hedge: &hedge.Config{Delay: 1.25, MaxHedges: 3, Tied: false, CancelRunning: true},
	}
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := `"hedge":{"delay":1.25,"maxHedges":3,"cancelRunning":true}`; !strings.Contains(string(raw), want) {
		t.Fatalf("hedge params encode as %s, want %s", raw, want)
	}
	var back Params
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, p) {
		t.Fatalf("params changed in round trip:\n%+v\n%+v", back, p)
	}
}
