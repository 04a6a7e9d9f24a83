package sim

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/elastic"
	"flowsched/internal/faults"
	"flowsched/internal/hedge"
	"flowsched/internal/obs"
	"flowsched/internal/overload"
	"flowsched/internal/popularity"
	"flowsched/internal/replicate"
	"flowsched/internal/resilience"
	"flowsched/internal/workload"
)

// checkTraceCompleteness is the oracle of the tracing property test: every
// task of the instance has a retained trace whose terminal state, flow and
// final attempt reconstruct the engine's own outputs (Schedule +
// ElasticMetrics), NaN-aware.
func checkTraceCompleteness(t *testing.T, label string, inst *core.Instance,
	s *core.Schedule, em *ElasticMetrics, tracer *obs.Tracer, seen map[obs.TraceState]int) {
	t.Helper()
	if !tracer.Done() || !eqTime(tracer.Makespan(), em.Makespan) {
		t.Fatalf("%s: tracer done=%v makespan=%v, engine makespan=%v",
			label, tracer.Done(), tracer.Makespan(), em.Makespan)
	}
	rejected := func(i int) bool { return em.Rejected != nil && em.Rejected[i] }
	shed := func(i int) bool { return em.Shed != nil && em.Shed[i] }
	for i := range inst.Tasks {
		tr := tracer.Trace(i)
		if tr == nil {
			t.Fatalf("%s: task %d has no trace", label, i)
		}
		if tr.Release != inst.Tasks[i].Release {
			t.Fatalf("%s: task %d release %v, want %v", label, i, tr.Release, inst.Tasks[i].Release)
		}
		if len(tr.Attempts) != em.Attempts[i] {
			t.Fatalf("%s: task %d traced %d attempts, engine counted %d",
				label, i, len(tr.Attempts), em.Attempts[i])
		}
		crashed := 0
		for k, a := range tr.Attempts {
			if a.Outcome == obs.AttemptPending {
				t.Fatalf("%s: task %d attempt %d left pending in state %v", label, i, k, tr.State)
			}
			if a.Outcome == obs.AttemptCompleted && k != len(tr.Attempts)-1 {
				t.Fatalf("%s: task %d completed mid-chain (attempt %d of %d)",
					label, i, k, len(tr.Attempts))
			}
			if a.Outcome == obs.AttemptCrashed {
				crashed++
			}
		}

		var wantState obs.TraceState
		switch {
		case rejected(i):
			wantState = obs.TraceRejected
		case shed(i):
			wantState = obs.TraceShed
		case em.Dropped[i]:
			wantState = obs.TraceDropped
		case !math.IsNaN(float64(em.Flows[i])):
			wantState = obs.TraceCompleted
		default:
			wantState = obs.TraceUnfinished
		}
		if tr.State != wantState {
			t.Fatalf("%s: task %d traced %v, engine disposition %v (dropped=%v flows=%v)",
				label, i, tr.State, wantState, em.Dropped[i], em.Flows[i])
		}
		seen[wantState]++

		switch wantState {
		case obs.TraceRejected:
			// Admission rejects at the arrival instant with no dispatch.
			if len(tr.Attempts) != 0 || tr.Flow != 0 || tr.Reason != em.Reason[i] {
				t.Fatalf("%s: rejected task %d trace = %+v (reason %q)", label, i, tr, em.Reason[i])
			}
		case obs.TraceShed:
			if !eqTime(tr.Flow, em.Flows[i]) || tr.Reason != em.Reason[i] {
				t.Fatalf("%s: shed task %d flow %v reason %q, engine %v %q",
					label, i, tr.Flow, tr.Reason, em.Flows[i], em.Reason[i])
			}
		case obs.TraceDropped:
			if !eqTime(tr.Flow, em.Flows[i]) {
				t.Fatalf("%s: dropped task %d flow %v, engine %v", label, i, tr.Flow, em.Flows[i])
			}
			if crashed != tr.Retries+1 {
				t.Fatalf("%s: dropped task %d has %d crashed attempts, %d retries",
					label, i, crashed, tr.Retries)
			}
		case obs.TraceCompleted:
			if !eqTime(tr.Flow, em.Flows[i]) {
				t.Fatalf("%s: task %d flow %v, engine %v", label, i, tr.Flow, em.Flows[i])
			}
			last := tr.Attempts[len(tr.Attempts)-1]
			if last.Outcome != obs.AttemptCompleted {
				t.Fatalf("%s: completed task %d final attempt %v", label, i, last.Outcome)
			}
			if last.Server != s.Machine[i] {
				t.Fatalf("%s: task %d completed on M%d, schedule says M%d",
					label, i, last.Server, s.Machine[i])
			}
			if last.End != tr.EndAt {
				t.Fatalf("%s: task %d attempt end %v ≠ trace end %v", label, i, last.End, tr.EndAt)
			}
			if !last.Retimed && last.Start != s.Start[i] {
				t.Fatalf("%s: task %d traced start %v, schedule start %v",
					label, i, last.Start, s.Start[i])
			}
			if last.Retimed && float64(last.Start) < float64(s.Start[i])-1e-9 {
				// Reconstructed start (end − proc) is exact on healthy servers
				// and an upper bound under a gray slowdown — never early.
				t.Fatalf("%s: task %d re-timed start %v before schedule start %v",
					label, i, last.Start, s.Start[i])
			}
			if crashed != tr.Retries {
				t.Fatalf("%s: task %d has %d crashed attempts, %d retries", label, i, crashed, tr.Retries)
			}
		case obs.TraceUnfinished:
			if !math.IsNaN(float64(tr.Flow)) || !math.IsNaN(float64(tr.EndAt)) {
				t.Fatalf("%s: unfinished task %d carries flow %v end %v", label, i, tr.Flow, tr.EndAt)
			}
			if !em.Parked[i] {
				t.Fatalf("%s: task %d unfinished but not parked", label, i)
			}
		}
	}
}

// TestTracerCompleteness is the tentpole property: over randomized
// elastic trials — all seven routers, crash and gray fault plans,
// admission + shedding + ejection, membership churn with drains and
// handoffs — every task's trace reconstructs the engine's disposition
// exactly. Same trial shapes as TestArenaReuseEquivalence.
func TestTracerCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	shedPolicies := []overload.ShedPolicy{
		overload.DropOldest, overload.DropNewest, overload.DropLargestStretch, overload.DropRandom,
	}
	seen := map[obs.TraceState]int{}
	for trial := 0; trial < 12; trial++ {
		m := 3 + rng.Intn(8)
		n := 20 + rng.Intn(150)
		load := 0.5 + 1.2*rng.Float64()
		inst := overloadedInstance(m, n, load, rng)
		horizon := inst.Tasks[n-1].Release + 10

		var plan *faults.Plan
		switch trial % 3 {
		case 1:
			plan = faults.Generate(m, horizon, 40, 10, rand.New(rand.NewSource(int64(trial))))
		case 2:
			plan = faults.GenerateGray(m, horizon, faults.GrayConfig{MTBF: 40, MTTR: 15},
				rand.New(rand.NewSource(int64(trial))))
		}
		var cfg *overload.Config
		if trial%2 == 1 {
			cfg = &overload.Config{
				Admission: overload.DeadlineAdmit{D: 15},
				Shedder:   &overload.Shedder{Policy: shedPolicies[trial%len(shedPolicies)], Watermark: 8, Seed: 3},
				Ejector:   &overload.Ejector{},
			}
		}
		var ecfg *elastic.Config
		if trial%4 >= 2 {
			ecfg = &elastic.Config{
				Initial: m, Min: 1 + (m-1)/2, Max: m, WarmUp: 0.5,
				Script: []elastic.Event{{At: horizon * 0.25, Delta: -2}, {At: horizon * 0.6, Delta: 2}},
			}
		}
		pol := RetryPolicy{MaxAttempts: 3}

		for _, kind := range allRouterKinds {
			seed := rng.Int63()
			router, _ := routerPair(kind, seed)
			tracer := obs.NewTracer(obs.KeepAll())
			s, em, err := NewArena().Run(inst, router, Config{Plan: plan, Retry: pol, Overload: cfg, Elastic: ecfg, Probe: obs.Multi(tracer)})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, kind, err)
			}
			label := kind
			checkTraceCompleteness(t, label, inst, s, em, tracer, seen)
		}
	}
	// Harsh epilogue trial: crash-heavy servers with a single-attempt budget
	// and a tight admission deadline, so drop and reject chains show up in
	// force (the randomized trials above rarely exhaust three attempts).
	{
		harshRng := rand.New(rand.NewSource(5))
		inst := overloadedInstance(4, 120, 2.0, harshRng)
		horizon := inst.Tasks[len(inst.Tasks)-1].Release + 10
		plan := faults.Generate(4, horizon, 5, 20, rand.New(rand.NewSource(5)))
		cfg := &overload.Config{
			Admission: overload.DeadlineAdmit{D: 2},
			Shedder:   &overload.Shedder{Policy: overload.DropOldest, Watermark: 4, Seed: 3},
		}
		for _, kind := range allRouterKinds {
			router, _ := routerPair(kind, harshRng.Int63())
			tracer := obs.NewTracer(obs.KeepAll())
			s, em, err := NewArena().Run(inst, router, Config{Plan: plan, Retry: RetryPolicy{MaxAttempts: 1}, Overload: cfg, Probe: obs.Multi(tracer)})
			if err != nil {
				t.Fatalf("harsh %s: %v", kind, err)
			}
			checkTraceCompleteness(t, "harsh-"+kind, inst, s, em, tracer, seen)
		}
	}

	// The property is only meaningful if the trials reached every terminal
	// state; a generator change that quietly stops producing (say) rejects
	// should fail loudly here rather than shrink the oracle's coverage.
	for _, st := range []obs.TraceState{
		obs.TraceCompleted, obs.TraceDropped, obs.TraceRejected, obs.TraceShed,
	} {
		if seen[st] == 0 {
			t.Errorf("no trial produced a %v task (coverage: %v)", st, seen)
		}
	}
}

// diffTrace names the first field where two traces differ ("" when they
// agree), walking every TaskTrace and AttemptSpan field by reflection so a
// field added later is compared too. Times compare NaN-aware; a nil and an
// empty Attempts slice are the same trace (both encode as no attempts).
func diffTrace(a, b *obs.TaskTrace) string {
	return diffValue("trace", reflect.ValueOf(*a), reflect.ValueOf(*b))
}

func diffValue(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := diffValue(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s (len %d vs %d)", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := diffValue(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Float64:
		if !eqTime(core.Time(a.Float()), core.Time(b.Float())) {
			return fmt.Sprintf("%s (%v vs %v)", path, a.Float(), b.Float())
		}
	default:
		if a.Interface() != b.Interface() {
			return fmt.Sprintf("%s (%v vs %v)", path, a.Interface(), b.Interface())
		}
	}
	return ""
}

// stackInstance draws the perfbench stack workload's instance shape: m = 15,
// Shuffled Zipf(1) popularity, overlapping k = 3 sets, load 0.8.
func stackInstance(n int, seed int64) *core.Instance {
	const m = 15
	weights := popularity.Weights(popularity.Shuffled, m, 1, rand.New(rand.NewSource(seed^0x5eed)))
	inst, err := workload.Generate(workload.Config{
		M: m, N: n, Rate: workload.RateForLoad(0.8, m),
		Weights: weights, Strategy: replicate.Overlapping{K: 3},
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(err)
	}
	return inst
}

// stackMix arms every engine link the way the perfbench stack workload does
// on m = 15 machines whose arrivals span about horizon: a 6x gray server,
// two flapping servers with jittered retries under a budget, queue-bound
// admission with stretch shedding and ejection, a drain/rejoin script,
// quantile hedging with CancelRunning, and circuit breakers. Configs carry
// per-run state, so every run gets a fresh one.
func stackMix(horizon core.Time, seed int64) Config {
	plan := faults.Empty(15)
	plan.Slow(4, 0, horizon, 6)
	for f := 0; f < 20; f++ {
		from := 0.2*horizon + core.Time(f)*15
		plan.Down(9, from, from+9)
		plan.Down(10, from, from+9)
	}
	return Config{
		Plan:  plan,
		Retry: RetryPolicy{MaxAttempts: 6, Backoff: 1, BackoffFactor: 2},
		Overload: &overload.Config{
			Admission: overload.QueueBound{MaxQueue: 20},
			Shedder:   &overload.Shedder{Policy: overload.DropLargestStretch, Watermark: 12, Seed: seed},
			Ejector:   &overload.Ejector{K: 3, Cooldown: 50},
		},
		Elastic: &elastic.Config{Min: 3, WarmUp: 5, Script: []elastic.Event{
			{At: 0.4 * horizon, Delta: -3}, {At: 0.6 * horizon, Delta: 3}}},
		Hedge: &hedge.Config{Quantile: 0.95, MinSamples: 20, CancelRunning: true},
		Resilience: &resilience.Config{
			Jitter: resilience.JitterFull, Seed: seed, RetryBudget: 0.1, BudgetBurst: 3,
			Breaker: &resilience.BreakerConfig{Window: 5, FailureThreshold: 0.6, Cooldown: 15,
				HalfOpenProbes: 2, SlowFactor: 3},
		},
	}
}

// TestTracerKeepWorstMatchesKeepAll runs each configuration twice — once
// traced with KeepAll, once with KeepWorst(k) — and checks the bounded
// tracer retained exactly the k worst traces of the full set, equal in every
// TaskTrace and AttemptSpan field. The elastic trials retry crashes; the
// stack-mix trials go through Arena.Run with every link armed, so
// the bounded tracer's traces (recycled across tasks) pass through every
// attempt outcome and terminal state, which the coverage tally asserts.
func TestTracerKeepWorstMatchesKeepAll(t *testing.T) {
	check := func(label string, k int, full, bounded *obs.Tracer) {
		t.Helper()
		want, got := full.Worst(k), bounded.Worst(k)
		if len(got) != k || len(want) != k {
			t.Fatalf("%s: got %d / want %d traces", label, len(got), len(want))
		}
		for i := range want {
			if d := diffTrace(want[i], got[i]); d != "" {
				t.Fatalf("%s: worst[%d] diverges at %s:\nkeep-all   %+v\nkeep-worst %+v",
					label, i, d, want[i], got[i])
			}
		}
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		m := 4 + rng.Intn(6)
		n := 60 + rng.Intn(100)
		inst := overloadedInstance(m, n, 1.0+rng.Float64(), rng)
		horizon := inst.Tasks[n-1].Release + 10
		plan := faults.Generate(m, horizon, 40, 10, rand.New(rand.NewSource(int64(trial))))
		pol := RetryPolicy{MaxAttempts: 3}

		seed := rng.Int63()
		ra, rb := routerPair("EFT-noisy", seed)
		full := obs.NewTracer(obs.KeepAll())
		if _, _, err := NewArena().Run(inst, ra, Config{Plan: plan, Retry: pol, Probe: obs.Multi(full)}); err != nil {
			t.Fatal(err)
		}
		bounded := obs.NewTracer(obs.KeepWorst(9))
		if _, _, err := NewArena().Run(inst, rb, Config{Plan: plan, Retry: pol, Probe: obs.Multi(bounded)}); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("elastic trial %d", trial), 9, full, bounded)
	}

	arena := NewArena()
	outcomes := map[obs.AttemptOutcome]int{}
	states := map[obs.TraceState]int{}
	for trial := 0; trial < 3; trial++ {
		inst := stackInstance(1500, int64(40+trial))
		horizon := inst.Tasks[inst.N()-1].Release
		run := func(tr *obs.Tracer) {
			c := stackMix(horizon, int64(trial))
			c.Probe = obs.Multi(tr)
			if _, _, err := arena.Run(inst, EFTRouter{}, c); err != nil {
				t.Fatal(err)
			}
		}
		full := obs.NewTracer(obs.KeepAll())
		run(full)
		for _, tr := range full.Traces() {
			states[tr.State]++
			for _, a := range tr.Attempts {
				outcomes[a.Outcome]++
			}
		}
		for _, k := range []int{1, 9, 40} {
			bounded := obs.NewTracer(obs.KeepWorst(k))
			run(bounded)
			check(fmt.Sprintf("stack trial %d k=%d", trial, k), k, full, bounded)
		}
	}
	for _, o := range []obs.AttemptOutcome{obs.AttemptCompleted, obs.AttemptCrashed,
		obs.AttemptHandedOff, obs.AttemptShed, obs.AttemptHedgeCancelled} {
		if outcomes[o] == 0 {
			t.Errorf("no stack trial produced a %v attempt (coverage: %v)", o, outcomes)
		}
	}
	for _, st := range []obs.TraceState{obs.TraceCompleted, obs.TraceDropped, obs.TraceRejected, obs.TraceShed} {
		if states[st] == 0 {
			t.Errorf("no stack trial produced a %v task (coverage: %v)", st, states)
		}
	}
}

// TestStackProbeAllocs pins what the always-on probes cost in allocations.
// A reused arena runs the stack link mix at n = 2,000 and n = 20,000, bare
// and with obs.Multi(Counters, Tracer(KeepWorst(20)), FlightRecorder).
// Neither the bare run's allocations nor the probes' marginal ones (probed
// minus bare) may grow with n: at ten times the tasks they may rise by at
// most stackAllocGrowth, the buffers sized by the peak backlog (the tracer's
// live traces among them) growing a few more times.
func TestStackProbeAllocs(t *testing.T) {
	arena := NewArena()
	counters := &obs.Counters{}
	flight := obs.NewFlightRecorder(4096)
	measure := func(n int) (bare, marginal float64) {
		inst := stackInstance(n, 47)
		horizon := inst.Tasks[n-1].Release
		run := func(probed bool) func() {
			return func() {
				var probe obs.Probe
				if probed {
					*counters = obs.Counters{}
					flight.Reset()
					probe = obs.Multi(counters, obs.NewTracer(obs.KeepWorst(20)), flight)
				}
				c := stackMix(horizon, 47)
				c.Probe = probe
				if _, _, err := arena.Run(inst, EFTRouter{}, c); err != nil {
					t.Fatal(err)
				}
			}
		}
		bare = testing.AllocsPerRun(3, run(false))
		return bare, testing.AllocsPerRun(3, run(true)) - bare
	}
	smallBare, smallProbe := measure(2000)
	bigBare, bigProbe := measure(20000)
	t.Logf("allocs per run: bare %.0f -> %.0f, probe marginal %.0f -> %.0f (n = 2,000 -> 20,000)",
		smallBare, bigBare, smallProbe, bigProbe)
	if bigBare > stackAllocGrowth*smallBare {
		t.Errorf("bare run allocations grow with n: %.0f at n = 2,000, %.0f at n = 20,000", smallBare, bigBare)
	}
	if bigProbe > stackAllocGrowth*smallProbe {
		t.Errorf("probe allocations grow with n: %.0f at n = 2,000, %.0f at n = 20,000", smallProbe, bigProbe)
	}
}

// TestSamplerRetiresOverloadDispositions runs the tracer golden's stack link
// mix, whose admission bound and shedder reject and shed tasks, under a
// Sampler: a rejected or shed task leaves the system, so the backlog drains
// to 0 by the makespan and the in-flight watermark never exceeds the run's
// Fmax. The mix also completes tasks by their hedge copies and hands off
// the queues of drained slots; each unfinished task counts on one queue at
// most, so Σ queues ≤ Backlog in every sample, and once the makespan has
// passed every queue is empty and no server is busy.
func TestSamplerRetiresOverloadDispositions(t *testing.T) {
	inst := stackInstance(2000, 4242)
	sampler, err := obs.NewSampler(inst.M, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := stackMix(inst.Tasks[inst.N()-1].Release, 4242)
	c.Probe = obs.Multi(sampler)
	_, em, err := NewArena().Run(inst, EFTRouter{}, c)
	if err != nil {
		t.Fatal(err)
	}
	if em.RejectedCount() == 0 || em.ShedCount() == 0 || em.HedgeWinsCopy == 0 || em.Handoffs == 0 {
		t.Fatalf("stack mix rejected %d tasks, shed %d, won %d by copy and handed off %d; the test needs all four",
			em.RejectedCount(), em.ShedCount(), em.HedgeWinsCopy, em.Handoffs)
	}
	samples := sampler.Samples()
	if last := samples[len(samples)-1]; last.Backlog != 0 {
		t.Errorf("backlog %d at the last sample (t=%v), want 0", last.Backlog, last.Time)
	}
	if peak, at := sampler.PeakMaxAge(); peak > em.MaxFlow() {
		t.Errorf("peak in-flight age %v at t=%v exceeds Fmax %v", peak, at, em.MaxFlow())
	}
	after := 0
	for _, sm := range samples {
		sum := 0
		for _, q := range sm.Queue {
			sum += q
		}
		if sum > sm.Backlog {
			t.Fatalf("t=%v: Σ queues %d > backlog %d (queues %v)", sm.Time, sum, sm.Backlog, sm.Queue)
		}
		if sm.Time >= em.Makespan {
			after++
			if sum != 0 || sm.Busy != 0 {
				t.Fatalf("t=%v after the makespan %v: queues %v, busy %d, want all 0", sm.Time, em.Makespan, sm.Queue, sm.Busy)
			}
		}
	}
	if after == 0 {
		t.Fatalf("no sample at or after the makespan %v", em.Makespan)
	}
}

// stackAllocGrowth bounds TestStackProbeAllocs' allocation ratio between the
// n = 20,000 and n = 2,000 runs.
const stackAllocGrowth = 1.25

// tracerGoldenFile pins the tracer's JSON output for one run with every
// engine link armed, as the SHA-256 of Tracer.WriteJSON under each
// retention policy. It is regenerated only for an intended change to the
// engine's event stream or to the trace format:
//
//	go test ./internal/sim -run TestTracerGolden -update-tracer
const tracerGoldenFile = "testdata/tracer_golden.digest"

var updateTracer = flag.Bool("update-tracer", false, "rewrite "+tracerGoldenFile+" from the current tracer")

// TestTracerGolden runs the stack link mix (n = 2,000) through one arena
// twice, traced with KeepAll and with KeepWorst(20), and compares the hash
// of each WriteJSON document with the recorded one. The KeepAll run also
// feeds Counters, a HistogramProbe, a Sampler and a JSONLSink, whose
// outputs are hashed the same way. The probes' internals may change; what
// they write may not.
func TestTracerGolden(t *testing.T) {
	inst := stackInstance(2000, 4242)
	horizon := inst.Tasks[inst.N()-1].Release
	arena := NewArena()
	var b strings.Builder
	digest := func(name string, doc []byte) {
		fmt.Fprintf(&b, "%s %x %d\n", name, sha256.Sum256(doc), len(doc))
	}
	for _, ret := range []struct {
		name string
		r    obs.Retention
	}{{"keep-all", obs.KeepAll()}, {"keep-worst-20", obs.KeepWorst(20)}} {
		tracer := obs.NewTracer(ret.r)
		c := stackMix(horizon, 4242)
		c.Probe = obs.Multi(tracer)
		counters, hist := &obs.Counters{}, obs.NewHistogramProbe()
		sampler, err := obs.NewSampler(inst.M, 1)
		if err != nil {
			t.Fatal(err)
		}
		var events bytes.Buffer
		sink := obs.NewJSONLSink(&events)
		allSinks := ret.r == obs.KeepAll()
		if allSinks {
			c.Probe = obs.Multi(tracer, counters, hist, sampler, sink)
		}
		if _, _, err := arena.Run(inst, EFTRouter{}, c); err != nil {
			t.Fatal(err)
		}
		var doc bytes.Buffer
		if err := tracer.WriteJSON(&doc); err != nil {
			t.Fatal(err)
		}
		digest(ret.name, doc.Bytes())
		if !allSinks {
			continue
		}
		var prom bytes.Buffer
		if err := counters.WriteProm(&prom); err != nil {
			t.Fatal(err)
		}
		digest("counters-prom", prom.Bytes())
		var quant bytes.Buffer
		for _, h := range []struct {
			name string
			h    *obs.Histogram
		}{{"flow", hist.Flow}, {"stretch", hist.Stretch}} {
			fmt.Fprintf(&quant, "%s count %d sum %v min %v max %v exemplars %d\n",
				h.name, h.h.Count(), h.h.Sum(), h.h.Min(), h.h.Max(), h.h.Exemplars())
			for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
				v, task := h.h.QuantileExemplar(q)
				fmt.Fprintf(&quant, "%s q%v %v task %d\n", h.name, q, v, task)
			}
		}
		digest("hist-quantiles", quant.Bytes())
		var series bytes.Buffer
		for _, s := range sampler.Samples() {
			fmt.Fprintf(&series, "%v %v %d %v %d %d\n", s.Time, s.Queue, s.Backlog, s.MaxAge, s.Busy, s.Members)
		}
		digest("samples", series.Bytes())
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		digest("jsonl", events.Bytes())
	}
	if *updateTracer {
		head := "# SHA-256 and byte length of Tracer.WriteJSON for the stack link mix,\n" +
			"# and of the other probes' outputs on the KeepAll run\n" +
			"# (TestTracerGolden). Regenerate only for an intended output change:\n" +
			"#   go test ./internal/sim -run TestTracerGolden -update-tracer\n"
		if err := os.WriteFile(tracerGoldenFile, []byte(head+b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(tracerGoldenFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update-tracer)", err)
	}
	var want strings.Builder
	for _, line := range strings.Split(string(raw), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			want.WriteString(line + "\n")
		}
	}
	if got := b.String(); got != want.String() {
		t.Fatalf("tracer output differs from %s:\n--- got\n%s--- want\n%s", tracerGoldenFile, got, want.String())
	}
}
