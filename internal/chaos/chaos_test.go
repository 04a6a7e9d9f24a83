package chaos

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/elastic"
	"flowsched/internal/obs"
	"flowsched/internal/sim"
)

// TestChaosSmoke is the deterministic-seed soak wired into `make check`: a
// full run of randomized trials across every router, strategy and fault
// mode must produce zero violations. The seed is fixed so a failure here is
// immediately reproducible.
func TestChaosSmoke(t *testing.T) {
	cfg := Config{Trials: 200, Seed: 1, MaxM: 10, MaxN: 150}
	sum, err := Run(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Trials != 200 {
		t.Fatalf("ran %d trials, want 200", sum.Trials)
	}
	if !sum.Ok() {
		for _, f := range sum.Failures {
			t.Errorf("trial %d (%+v): %v", f.Params.Trial, f.Params, f.Violations[0])
		}
	}
}

func TestSampleParamsAndBuildDeterministic(t *testing.T) {
	cfg := Config{Seed: 42}
	for trial := 0; trial < 20; trial++ {
		a, b := SampleParams(cfg, trial), SampleParams(cfg, trial)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: params differ: %+v vs %+v", trial, a, b)
		}
		ia, pa, err := a.Build()
		if err != nil {
			t.Fatal(err)
		}
		ib, pb, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ia.Tasks, ib.Tasks) {
			t.Fatalf("trial %d: instances differ", trial)
		}
		if !reflect.DeepEqual(pa, pb) {
			t.Fatalf("trial %d: plans differ", trial)
		}
	}
}

// corruptingRouter picks a valid server but rewinds its completion clock —
// the kind of state corruption the simulator itself cannot notice (the pick
// is eligible and live) but that yields overlapping executions only the
// auditor catches.
type corruptingRouter struct{}

func (corruptingRouter) Name() string { return "corrupting" }

func (corruptingRouter) Pick(st *sim.State, t core.Task) int {
	j := 0
	if t.Set != nil {
		j = t.Set[0]
	}
	st.Completion[j] = 0
	return j
}

// setIgnoringRouter routes everything to the last machine regardless of the
// processing set — the simulator rejects the pick, surfacing as a sim-error
// violation.
type setIgnoringRouter struct{}

func (setIgnoringRouter) Name() string { return "set-ignoring" }

func (setIgnoringRouter) Pick(st *sim.State, t core.Task) int { return st.M - 1 }

func brokenRouters() []RouterSpec {
	return append(DefaultRouters(),
		RouterSpec{Name: "corrupting", New: func(int64) sim.Router { return corruptingRouter{} }},
		RouterSpec{Name: "set-ignoring", New: func(int64) sim.Router { return setIgnoringRouter{} }},
	)
}

// TestCorruptingRouterCaughtAndShrunk is the acceptance scenario: a broken
// router is caught by the auditor (overlap violations) and shrunk to a
// repro of at most 5 tasks.
func TestCorruptingRouterCaughtAndShrunk(t *testing.T) {
	cfg := Config{Routers: brokenRouters()}
	p := Params{
		Trial: 0, Seed: 1234,
		M: 4, N: 60, K: 1,
		Load: 2, Dist: "constant", Strategy: "unrestricted",
		Router: "corrupting", FaultMode: "none",
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
		t.Fatal("corrupting router not caught")
	}
	overlap := false
	for _, v := range vs {
		if v.Invariant == "overlap" {
			overlap = true
		}
	}
	if !overlap {
		t.Fatalf("want an overlap violation, got %v", vs)
	}
	repro, err := ShrinkFailure(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if repro.N() > 5 {
		t.Fatalf("shrunk repro has %d tasks, want ≤ 5", repro.N())
	}
	if len(repro.Violations) == 0 {
		t.Fatal("shrunk repro carries no violations")
	}
	// The shrunk configuration must still reproduce on replay.
	vs2, err := repro.Replay(cfg.Routers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs2) == 0 {
		t.Fatal("shrunk repro does not replay")
	}
}

// TestSetIgnoringRouterCaughtAndShrunk: a router that ignores processing
// sets is rejected by the simulator; the harness converts that into a
// shrinkable sim-error violation.
func TestSetIgnoringRouterCaughtAndShrunk(t *testing.T) {
	cfg := Config{Routers: brokenRouters()}
	p := Params{
		Trial: 1, Seed: 77,
		M: 6, N: 40, K: 1,
		Load: 0.8, Dist: "constant", Strategy: "none", // singleton sets
		Router: "set-ignoring", FaultMode: "none",
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
	if len(vs) != 1 || vs[0].Invariant != InvSimError {
		t.Fatalf("want a single sim-error violation, got %v", vs)
	}
	repro, err := ShrinkFailure(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if repro.N() > 5 {
		t.Fatalf("shrunk repro has %d tasks, want ≤ 5", repro.N())
	}
	if repro.Violations[0].Invariant != InvSimError {
		t.Fatalf("shrunk violation = %v, want %s", repro.Violations[0], InvSimError)
	}
}

// TestShrinkKeepsOriginalInvariant: a guarded trial whose SLO guard is an
// estimator built for the trial's 4 machines fails with overlaps under the
// corrupting router. Halving the cluster would make the run fail validation
// instead (a sim-error: the estimator no longer fits the cluster) — a
// different failure the shrinker must not follow, or the repro replays that
// instead of the overlap.
func TestShrinkKeepsOriginalInvariant(t *testing.T) {
	cfg := Config{Routers: brokenRouters()}
	p := Params{
		Trial: 2, Seed: 99,
		M: 4, N: 60, K: 2,
		Load: 2, Dist: "constant", Strategy: "overlapping",
		Router: "corrupting", FaultMode: "none",
		Overload: &OverloadParams{Mode: "slo"},
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
	if len(vs) == 0 || vs[0].Invariant != "overlap" {
		t.Fatalf("want the trial to fail with overlap first, got %v", vs)
	}
	var fit []core.Task
	for _, task := range inst.Tasks {
		if task.Set == nil || task.Set.Max() < 2 {
			fit = append(fit, task)
		}
	}
	halved := core.NewInstance(2, fit)
	if hv := Check(halved, clipPlan(plan, 2), spec, p, nil); len(hv) == 0 || hv[0].Invariant != InvSimError {
		t.Fatalf("halving the cluster should fail differently (sim-error), got %v", hv)
	}
	repro, err := ShrinkFailure(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := repro.Violations[0].Invariant; got != "overlap" {
		t.Fatalf("shrunk repro fails with %s (%s), want the original overlap", got, repro.Violations[0])
	}
	ri, err := repro.Inst()
	if err != nil {
		t.Fatal(err)
	}
	if ri.M != 4 || ri.N() == 0 {
		t.Fatalf("shrunk repro has m=%d n=%d; the overlap needs the estimator's 4 machines and some tasks", ri.M, ri.N())
	}
	vs2, err := repro.Replay(cfg.Routers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs2) == 0 || vs2[0].Invariant != "overlap" {
		t.Fatalf("repro replays %v, want overlap first", vs2)
	}
}

// TestSampleParamsElasticCoverage: a healthy fraction of trials sample
// membership churn, and every sampled elastic config is valid for its own
// cluster and for any halved cluster the shrinker may hand it.
func TestSampleParamsElasticCoverage(t *testing.T) {
	cfg := Config{Seed: 7}
	churn := 0
	for trial := 0; trial < 200; trial++ {
		p := SampleParams(cfg, trial)
		if p.Elastic == nil {
			continue
		}
		churn++
		if len(p.Elastic.Script) == 0 && !p.Elastic.Auto {
			t.Fatalf("trial %d: elastic params with nothing to do: %+v", trial, p.Elastic)
		}
		for m := p.M; m >= 1; m /= 2 {
			if err := p.elasticConfig(m).Validate(m); err != nil {
				t.Fatalf("trial %d: elastic config invalid at m=%d: %v", trial, m, err)
			}
		}
	}
	if churn < 30 {
		t.Fatalf("only %d/200 trials sampled membership churn", churn)
	}
}

// TestElasticChurnCaughtAndShrunk is the membership acceptance scenario: a
// broken router on a churning cluster — machines joining and draining
// mid-run, queued work handing off — is caught by the auditor and shrunk to
// a repro of at most 5 tasks, with the scale script minimized alongside the
// instance (this failure does not depend on the churn, so the script must
// shrink away entirely).
func TestElasticChurnCaughtAndShrunk(t *testing.T) {
	cfg := Config{Routers: brokenRouters()}
	p := Params{
		Trial: 4, Seed: 4242,
		M: 6, N: 60, K: 2,
		Load: 1.5, Dist: "constant", Strategy: "overlapping",
		Router: "corrupting", FaultMode: "none",
		Elastic: &ElasticParams{
			Initial: 3, Min: 1, Max: 6, WarmUp: 0.5,
			Script: []elastic.Event{
				{At: 2, Delta: 2}, {At: 5, Delta: -2}, {At: 8, Delta: 1}, {At: 11, Delta: -3},
			},
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
		t.Fatal("corrupting router not caught under churn")
	}
	overlap := false
	for _, v := range vs {
		if v.Invariant == "overlap" {
			overlap = true
		}
	}
	if !overlap {
		t.Fatalf("want an overlap violation, got %v", vs)
	}
	repro, err := ShrinkFailure(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if repro.N() > 5 {
		t.Fatalf("shrunk repro has %d tasks, want ≤ 5", repro.N())
	}
	if got := len(repro.Params.Elastic.Script); got != 0 {
		t.Fatalf("churn-independent failure kept %d script events", got)
	}
	// The repro round-trips with its elastic params intact and still replays.
	var buf bytes.Buffer
	if err := repro.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRepro(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Params.Elastic, repro.Params.Elastic) {
		t.Fatalf("elastic params changed in round trip: %+v vs %+v",
			back.Params.Elastic, repro.Params.Elastic)
	}
	vs2, err := back.Replay(cfg.Routers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs2) == 0 {
		t.Fatal("shrunk repro does not replay under churn params")
	}
}

// TestShrinkDeterministic: shrinking the same failure twice produces the
// same minimal repro.
func TestShrinkDeterministic(t *testing.T) {
	cfg := Config{Routers: brokenRouters()}
	p := Params{
		Trial: 2, Seed: 5151,
		M: 5, N: 50, K: 1,
		Load: 1.5, Dist: "uniform", Strategy: "unrestricted",
		Router: "corrupting", FaultMode: "crash", MTBF: 5, MTTR: 2, Zones: 1,
	}
	a, err := ShrinkFailure(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ShrinkFailure(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	ia, _ := a.Inst()
	ib, _ := b.Inst()
	if !reflect.DeepEqual(ia.Tasks, ib.Tasks) || ia.M != ib.M {
		t.Fatal("shrink is not deterministic on the instance")
	}
	if !reflect.DeepEqual(a.Plan, b.Plan) {
		t.Fatal("shrink is not deterministic on the plan")
	}
}

// TestReproRoundTrip: a repro survives WriteJSON → ReadRepro with its
// parameters, instance, plan and violations intact, and still replays.
func TestReproRoundTrip(t *testing.T) {
	cfg := Config{Routers: brokenRouters()}
	p := Params{
		Trial: 3, Seed: 99,
		M: 3, N: 30, K: 1,
		Load: 2, Dist: "constant", Strategy: "unrestricted",
		Router: "corrupting", FaultMode: "gray", MTBF: 4, MTTR: 2, Zones: 1,
	}
	repro, err := ShrinkFailure(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := repro.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRepro(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Params, repro.Params) {
		t.Fatalf("params changed: %+v vs %+v", back.Params, repro.Params)
	}
	if !reflect.DeepEqual(back.Plan, repro.Plan) {
		t.Fatalf("plan changed: %+v vs %+v", back.Plan, repro.Plan)
	}
	bi, err := back.Inst()
	if err != nil {
		t.Fatal(err)
	}
	ri, _ := repro.Inst()
	if !reflect.DeepEqual(bi.Tasks, ri.Tasks) {
		t.Fatal("instance changed in round trip")
	}
	vs, err := back.Replay(cfg.Routers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Fatal("round-tripped repro does not replay")
	}
}

// TestReadReproRejectsInvalid: malformed repro files error instead of
// producing a half-decoded repro.
func TestReadReproRejectsInvalid(t *testing.T) {
	for _, s := range []string{
		`{`,
		`{"params":{},"violations":[],"instance":{"m":0,"tasks":[]}}`,
		`{"params":{},"violations":[],"instance":{"m":2,"tasks":[]},"plan":{"m":0}}`,
		`{"unknown":1}`,
	} {
		if _, err := ReadRepro(bytes.NewReader([]byte(s))); err == nil {
			t.Errorf("accepted invalid repro %s", s)
		}
	}
}

// TestFlightRecorderDumpReplay is the black-box-recorder acceptance check: a
// caught failure carries the raw event stream of its shrunk repro, the dump
// survives a JSONL round trip, and replaying the repro with a fresh recorder
// reproduces the violating event sequence byte for byte.
func TestFlightRecorderDumpReplay(t *testing.T) {
	cfg := Config{Routers: brokenRouters()}
	p := Params{
		Trial: 0, Seed: 1234,
		M: 4, N: 60, K: 1,
		Load: 2, Dist: "constant", Strategy: "unrestricted",
		Router: "corrupting", FaultMode: "none",
	}
	repro, err := ShrinkFailure(cfg, p)
	if err != nil {
		t.Fatal(err)
	}

	rec := obs.NewFlightRecorder(0)
	vs, err := repro.Replay(cfg.Routers, rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Fatal("recorded replay lost the violation")
	}
	events := rec.Events()
	if len(events) == 0 {
		t.Fatal("recorded replay captured no events")
	}
	// The violating schedule must be visible in the stream: every task of
	// the shrunk repro dispatches, and the run closes with a done marker.
	dispatched := map[int]bool{}
	for _, ev := range events {
		if ev.Ev == "dispatch" {
			dispatched[ev.Task] = true
		}
	}
	if len(dispatched) != repro.N() {
		t.Fatalf("dump shows %d dispatched tasks, repro has %d", len(dispatched), repro.N())
	}
	if last := events[len(events)-1]; last.Ev != "done" {
		t.Fatalf("dump ends with %q, want done", last.Ev)
	}

	// Round trip through the on-disk JSONL form.
	dir := t.TempDir()
	path := filepath.Join(dir, "repro.events.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteFlightEvents(f, events); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadFlightEvents(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("round trip changed event count: %d → %d", len(events), len(back))
	}

	// Determinism: a second replay with a fresh recorder reproduces the
	// identical sequence (NaN sentinels defeat ==, so compare serialized).
	rec2 := obs.NewFlightRecorder(0)
	if _, err := repro.Replay(cfg.Routers, rec2); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := obs.WriteFlightEvents(&a, events); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteFlightEvents(&b, rec2.Events()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("replayed event stream diverges from the recorded dump")
	}
	if a.String() != string(raw) {
		t.Fatal("on-disk dump diverges from the in-memory stream")
	}
}

// TestRunAttachesFlightEvents: the soak loop itself decorates every caught
// failure with its shrunk repro's event stream, so `chaos -out` dumps land
// next to the repro files without a separate replay step.
func TestRunAttachesFlightEvents(t *testing.T) {
	cfg := Config{Trials: 40, Seed: 3, MaxM: 6, MaxN: 40, Routers: brokenRouters()}
	sum, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ok() {
		t.Fatal("broken routers produced no failures — injection is broken")
	}
	for _, f := range sum.Failures {
		if len(f.Events) == 0 {
			t.Errorf("trial %d failure carries no flight events", f.Params.Trial)
			continue
		}
		simError := false
		for _, v := range f.Violations {
			if v.Invariant == InvSimError {
				simError = true
			}
		}
		// A sim-error aborts mid-run, so its dump legitimately stops at the
		// failing instant; every completed replay must close with done.
		if last := f.Events[len(f.Events)-1]; !simError && last.Ev != "done" {
			t.Errorf("trial %d event stream ends with %q, want done", f.Params.Trial, last.Ev)
		}
	}
}

// TestCheckedInReprosReplayClean replays the shrunk soak failures kept
// under testdata/ — two lower-bound failures of elastic runs, two hedge
// copies counted in more than one resolution, a trim that shed a hedged
// primary and its copy together and reclaimed the copy's busy time twice
// (trial 2180), and a parked task dispatched between two same-instant joins
// (trial 1006) — and requires each to audit clean now. Each file still
// records the violations it used to produce, and re-encodes byte for byte.
func TestCheckedInReprosReplayClean(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "repro-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no checked-in repros under testdata/")
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		r, err := ReadRepro(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(r.Violations) == 0 {
			t.Errorf("%s records no violation: not a repro", path)
		}
		var again bytes.Buffer
		if err := r.WriteJSON(&again); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !bytes.Equal(again.Bytes(), raw) {
			t.Errorf("%s does not re-encode byte for byte", path)
		}
		vs, err := r.Replay(nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(vs) > 0 {
			t.Errorf("%s still fails with %d violation(s); first: %s", path, len(vs), vs[0])
		}
	}
}
