package chaos

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/elastic"
	"flowsched/internal/faults"
	"flowsched/internal/hedge"
	"flowsched/internal/sim"
)

// shrinkGoldenFile pins what ShrinkFailure makes of nine failing trials: the
// SHA-256 and byte length of each repro's WriteJSON document, and the number
// of Check runs the shrink took. Regenerate it only for an intended change to
// the shrink schedule or to the repro format:
//
//	go test ./internal/chaos -run TestShrinkGolden -update-shrink
const shrinkGoldenFile = "testdata/shrink_golden.digest"

var updateShrink = flag.Bool("update-shrink", false, "rewrite "+shrinkGoldenFile+" from the current shrinker")

// shrinkGoldenRows are the shrink tests' failing trials plus one mixed-fault
// trial whose shrink drops both outages and slowdowns from one plan.
func shrinkGoldenRows() []struct {
	name string
	p    Params
} {
	return []struct {
		name string
		p    Params
	}{
		{"corrupting", Params{Trial: 0, Seed: 1234, M: 4, N: 60, K: 1, Load: 2, Dist: "constant",
			Strategy: "unrestricted", Router: "corrupting", FaultMode: "none"}},
		{"set-ignoring", Params{Trial: 1, Seed: 77, M: 6, N: 40, K: 1, Load: 0.8, Dist: "constant",
			Strategy: "none", Router: "set-ignoring", FaultMode: "none"}},
		{"keeps-invariant", Params{Trial: 2, Seed: 99, M: 4, N: 60, K: 2, Load: 2, Dist: "constant",
			Strategy: "overlapping", Router: "corrupting", FaultMode: "none",
			Overload: &OverloadParams{Mode: "slo"}}},
		{"elastic-churn", Params{Trial: 4, Seed: 4242, M: 6, N: 60, K: 2, Load: 1.5, Dist: "constant",
			Strategy: "overlapping", Router: "corrupting", FaultMode: "none",
			Elastic: &ElasticParams{Initial: 3, Min: 1, Max: 6, WarmUp: 0.5, Script: []elastic.Event{
				{At: 2, Delta: 2}, {At: 5, Delta: -2}, {At: 8, Delta: 1}, {At: 11, Delta: -3},
			}}}},
		{"crash", Params{Trial: 2, Seed: 5151, M: 5, N: 50, K: 1, Load: 1.5, Dist: "uniform",
			Strategy: "unrestricted", Router: "corrupting", FaultMode: "crash", MTBF: 5, MTTR: 2, Zones: 1}},
		{"gray", Params{Trial: 3, Seed: 99, M: 3, N: 30, K: 1, Load: 2, Dist: "constant",
			Strategy: "unrestricted", Router: "corrupting", FaultMode: "gray", MTBF: 4, MTTR: 2, Zones: 1}},
		{"hedged", Params{Trial: 9, Seed: 9999, M: 5, N: 50, K: 2, Load: 1.5, Dist: "constant",
			Strategy: "overlapping", Router: "corrupting", FaultMode: "none",
			Hedge: &hedge.Config{Quantile: 0.9, MinSamples: 5, MaxHedges: 10, CancelRunning: true}}},
		{"resilient", Params{Trial: 9, Seed: 9999, M: 5, N: 50, K: 2, Load: 1.5, Dist: "constant",
			Strategy: "overlapping", Router: "corrupting", FaultMode: "none",
			Resilience: &ResilienceParams{Jitter: "equal", RetryBudget: 0.2, BudgetBurst: 5,
				BreakerWindow: 5, FailureThreshold: 0.5, Cooldown: 2, HalfOpenProbes: 2}}},
		{"mixed-faults", Params{Trial: 11, Seed: 31337, M: 8, N: 200, K: 3, Load: 1.7, Dist: "exponential",
			Strategy: "overlapping", Router: "corrupting", FaultMode: "mixed", MTBF: 6, MTTR: 2, Zones: 2}},
	}
}

// TestShrinkGolden shrinks each golden row and compares its repro bytes and
// oracle-run count with the recorded ones. Every Check builds its router once,
// so a counting RouterSpec.New counts the runs.
func TestShrinkGolden(t *testing.T) {
	runs := 0
	routers := brokenRouters()
	for i := range routers {
		build := routers[i].New
		routers[i].New = func(seed int64) sim.Router { runs++; return build(seed) }
	}
	var b strings.Builder
	for _, row := range shrinkGoldenRows() {
		runs = 0
		repro, err := ShrinkFailure(Config{Routers: routers}, row.p)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		var doc bytes.Buffer
		if err := repro.WriteJSON(&doc); err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		fmt.Fprintf(&b, "%s %x %d runs %d\n", row.name, sha256.Sum256(doc.Bytes()), doc.Len(), runs)
	}
	if *updateShrink {
		head := "# SHA-256 and byte length of Repro.WriteJSON, and the number of Check\n" +
			"# runs, for each shrunk trial of TestShrinkGolden. Regenerate only for an\n" +
			"# intended change to the shrink schedule or the repro format:\n" +
			"#   go test ./internal/chaos -run TestShrinkGolden -update-shrink\n"
		if err := os.WriteFile(shrinkGoldenFile, []byte(head+b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(shrinkGoldenFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update-shrink)", err)
	}
	var want strings.Builder
	for _, line := range strings.Split(string(raw), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			want.WriteString(line + "\n")
		}
	}
	if got := b.String(); got != want.String() {
		t.Fatalf("shrink output differs from %s:\n--- got\n%s--- want\n%s", shrinkGoldenFile, got, want.String())
	}
}

// TestParamsPassPeelsKnobs runs the params pass under an oracle that needs
// cancel-mid-service hedging and jittered retries: the scale script goes,
// both layers stay, and every other knob is peeled, one oracle call per
// edit that had something to peel.
func TestParamsPassPeelsKnobs(t *testing.T) {
	calls := 0
	s := &shrinker{
		p: Params{
			Elastic: &ElasticParams{Initial: 2, Script: []elastic.Event{{At: 1, Delta: 1}, {At: 2, Delta: -1}, {At: 3, Delta: 1}}},
			Hedge:   &hedge.Config{Quantile: 0.9, MinSamples: 5, MaxHedges: 10, CancelRunning: true},
			Resilience: &ResilienceParams{Jitter: "equal", RetryBudget: 0.2, BudgetBurst: 5,
				BreakerWindow: 5, FailureThreshold: 0.5, Cooldown: 2, HalfOpenProbes: 2, SlowFactor: 3},
		},
		fails: func(_ *core.Instance, _ *faults.Plan, p Params) bool {
			calls++
			return p.Hedge != nil && p.Hedge.CancelRunning && p.Resilience != nil && p.Resilience.Jitter != ""
		},
	}
	if !pass(s.params()) {
		t.Fatal("params pass kept nothing")
	}
	want := Params{
		Elastic:    &ElasticParams{Initial: 2},
		Hedge:      &hedge.Config{Delay: 1, CancelRunning: true},
		Resilience: &ResilienceParams{Jitter: "equal"},
	}
	if !reflect.DeepEqual(s.p, want) {
		t.Fatalf("params pass left %+v / %+v / %+v, want %+v / %+v / %+v",
			s.p.Elastic, s.p.Hedge, s.p.Resilience, want.Elastic, want.Hedge, want.Resilience)
	}
	// Script: drop 2, then the last 1. Hedge: drop, cap, cancel, quantile.
	// Resilience: drop, breakers (which clears the slow factor), budget, jitter.
	if calls != 10 {
		t.Fatalf("params pass made %d oracle calls, want 10", calls)
	}
}
