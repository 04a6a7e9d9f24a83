package benchreg

import (
	"math/rand"
	"testing"

	"flowsched/internal/audit"
	"flowsched/internal/core"
	"flowsched/internal/elastic"
	"flowsched/internal/faults"
	"flowsched/internal/hedge"
	"flowsched/internal/loadlp"
	"flowsched/internal/obs"
	"flowsched/internal/overload"
	"flowsched/internal/popularity"
	"flowsched/internal/replicate"
	"flowsched/internal/resilience"
	"flowsched/internal/sched"
	"flowsched/internal/sim"
	"flowsched/internal/stats"
	"flowsched/internal/workload"
)

// The registered suite: the simulator hot paths (router Pick, Run variants,
// FIFO dispatch) plus the stats kernel, the LP (15) solve and the SLO-guard
// build. Every entry lands in BENCH_<n>.json; the Pick entries are
// additionally pinned to 0 allocs/op by TestRouterPickAllocs in
// internal/sim.

func init() {
	Register("RouterEFTPick", benchRouterEFTPick)
	Register("RouterEFTPickFullSet", benchRouterEFTPickFullSet)
	Register("RouterJSQPick", benchRouterJSQPick)
	Register("SimRunEFT", benchSimRunEFT)
	Register("SimRunEFTMinFullSet", benchSimRunEFTMinFullSet)
	Register("SimRunEFTMaxFullSet", benchSimRunEFTMaxFullSet)
	Register("SimRunEFTMinFullSetM1000", benchSimRunEFTMinFullSetM1000)
	Register("SimRunJSQ", benchSimRunJSQ)
	Register("ProbeOverheadSimHist", benchProbeOverheadSimHist)
	Register("SimRunTracedKeepWorst", benchSimRunTracedKeepWorst)
	Register("SimRunFlightRecorded", benchSimRunFlightRecorded)
	Register("SimRunFaulty", benchSimRunFaulty)
	Register("SimRunFaultySlowNoop", benchSimRunFaultySlowNoop)
	Register("SimRunFaultyGray", benchSimRunFaultyGray)
	Register("SimRunGuardedAdmit", benchSimRunGuardedAdmit)
	Register("SimRunElasticScale", benchSimRunElasticScale)
	Register("SimRunHedgedGray", benchSimRunHedgedGray)
	Register("SimRunResilientStorm", benchSimRunResilientStorm)
	Register("SimRunStackArmed", benchSimRunStackArmed)
	Register("SimRunFaultySteady", benchSimRunFaultySteady)
	Register("SimRunGuardedAdmitSteady", benchSimRunGuardedAdmitSteady)
	Register("OutlierEject", benchOutlierEject)
	Register("AuditSchedule", benchAuditSchedule)
	Register("AuditScheduleFullSet", benchAuditScheduleFullSet)
	Register("SchedEFTRun", benchSchedEFTRun)
	Register("SchedFIFORun", benchSchedFIFORun)
	Register("StatsSummarize", benchStatsSummarize)
	Register("LoadLPMaxLoad", benchLoadLPMaxLoad)
	Register("EstimatorBuildM1000", benchEstimatorBuildM1000)
}

// pickTasks builds a ring of release-ordered tasks with interval processing
// sets of size k on m machines (nil sets when k <= 0).
func pickTasks(m, k, n int) []core.Task {
	tasks := make([]core.Task, n)
	tm := 0.0
	for i := range tasks {
		tm += 0.07
		tasks[i] = core.Task{ID: i, Release: tm, Proc: 1}
		if k > 0 {
			lo := i % (m - k + 1)
			tasks[i].Set = core.Interval(lo, lo+k-1)
		}
	}
	return tasks
}

func pickState(m int) *sim.State {
	st := &sim.State{M: m, Completion: make([]core.Time, m), QueueLen: make([]int, m)}
	rng := rand.New(rand.NewSource(1))
	for j := 0; j < m; j++ {
		st.Completion[j] = core.Time(rng.Float64() * 10)
		st.QueueLen[j] = rng.Intn(4)
	}
	return st
}

// benchPick drives one router Pick per iteration, advancing the picked
// server's clock so the candidate structure keeps changing.
func benchPick(b *testing.B, router sim.Router, m, k int) {
	tasks := pickTasks(m, k, 1024)
	st := pickState(m)
	router.Pick(st, tasks[0]) // warm the scratch buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := tasks[i%len(tasks)]
		j := router.Pick(st, t)
		st.Completion[j] += t.Proc
		st.QueueLen[j]++
		st.QueueLen[(j+1)%m] = 0
	}
}

func benchRouterEFTPick(b *testing.B)        { benchPick(b, sim.EFTRouter{}, 15, 3) }
func benchRouterEFTPickFullSet(b *testing.B) { benchPick(b, sim.EFTRouter{}, 256, 0) }
func benchRouterJSQPick(b *testing.B)        { benchPick(b, sim.JSQRouter{}, 15, 3) }

// restrictedInstance is the paper-shaped workload (Zipf popularity,
// overlapping replication) at reduced size.
func restrictedInstance(m, k, n int) *core.Instance {
	rng := rand.New(rand.NewSource(7))
	inst, err := workload.Generate(workload.Config{
		M: m, N: n, Rate: 0.8 * float64(m),
		Weights:  popularity.Weights(popularity.Shuffled, m, 1, rng),
		Strategy: replicate.Overlapping{K: k},
	}, rng)
	if err != nil {
		panic(err)
	}
	return inst
}

// fullSetInstance has unit tasks with Poisson arrivals at the given load
// and nil processing sets: every EFT dispatch descends the ready tree.
func fullSetInstance(m, n int, load float64) *core.Instance {
	rng := rand.New(rand.NewSource(7))
	tasks := make([]core.Task, n)
	tm := 0.0
	for i := range tasks {
		tm += rng.ExpFloat64() / (load * float64(m))
		tasks[i] = core.Task{Release: tm, Proc: 1}
	}
	return core.NewInstance(m, tasks)
}

func benchSimRun(b *testing.B, inst *core.Instance, router sim.Router) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sim.Run(inst, router); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSimRunEFT(b *testing.B) {
	benchSimRun(b, restrictedInstance(15, 3, 5000), sim.EFTRouter{})
}

func benchSimRunEFTMinFullSet(b *testing.B) {
	benchSimRun(b, fullSetInstance(256, 5000, 0.9), sim.EFTRouter{})
}

func benchSimRunEFTMaxFullSet(b *testing.B) {
	benchSimRun(b, fullSetInstance(256, 5000, 0.9), sim.EFTRouter{Tie: sched.MaxTie{}})
}

// benchSimRunEFTMinFullSetM1000 is perfbench's scale point (m = 10³,
// load 0.95, full sets, EFT-Min) at a tenth of its n: five-level ready-tree
// descents over 1,024 leaves, four children per node.
func benchSimRunEFTMinFullSetM1000(b *testing.B) {
	benchSimRun(b, fullSetInstance(1000, 100_000, 0.95), sim.EFTRouter{})
}

func benchSimRunJSQ(b *testing.B) {
	benchSimRun(b, restrictedInstance(15, 3, 5000), sim.JSQRouter{})
}

// benchSimRunProbed times sim.RunProbed with the probe on the SimRunEFT
// workload; SimRunEFT itself is the nil-probe baseline (sim.Run is RunProbed
// with a nil probe, whose hooks are pure branch-not-taken).
func benchSimRunProbed(b *testing.B, newProbe func() obs.Probe) {
	inst := restrictedInstance(15, 3, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sim.RunProbed(inst, sim.EFTRouter{}, newProbe()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchProbeOverheadSimHist prices the streaming flow/stretch histogram
// probe against SimRunEFT.
func benchProbeOverheadSimHist(b *testing.B) {
	probe := obs.Multi(obs.NewHistogramProbe())
	benchSimRunProbed(b, func() obs.Probe { return probe })
}

// benchSimRunTracedKeepWorst prices span tracing against SimRunEFT: a
// bounded tail tracer, fresh per run as in real use (retention state is per
// run, not reusable).
func benchSimRunTracedKeepWorst(b *testing.B) {
	benchSimRunProbed(b, func() obs.Probe { return obs.Multi(obs.NewTracer(obs.KeepWorst(20))) })
}

// benchSimRunFlightRecorded prices the always-on flight recorder on the
// SimRunEFT workload: one 4096-event ring, reset and refilled every run,
// as chaos and the stack workload use it.
func benchSimRunFlightRecorded(b *testing.B) {
	rec := obs.NewFlightRecorder(4096)
	probe := obs.Multi(rec)
	benchSimRunProbed(b, func() obs.Probe { rec.Reset(); return probe })
}

// benchEngine times one engine run per iteration on the SimRunEFT
// workload, each in a fresh arena: the one-off call shape. Every engine
// entry arms its layers on top of an empty fault plan, so SimRunFaulty is
// the bare engine and each other entry prices what its layers add.
func benchEngine(b *testing.B, router sim.Router, cfg sim.Config) {
	inst := restrictedInstance(15, 3, 5000)
	if cfg.Plan == nil {
		cfg.Plan = faults.Empty(15)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sim.NewArena().Run(inst, router, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// The faulty-simulation trio brackets the gray-failure cost on the same
// workload: SimRunFaulty is the crash-free healthy path, SlowNoop adds a
// plan whose slowdown segments all have Factor 1 (the no-op normalization
// must make it indistinguishable from SimRunFaulty), and Gray degrades a
// third of the servers to quarter speed for most of the horizon.
func benchSimRunFaulty(b *testing.B) { benchEngine(b, sim.EFTRouter{}, sim.Config{}) }

func benchSimRunFaultySlowNoop(b *testing.B) {
	plan := faults.Empty(15)
	for j := 0; j < 15; j++ {
		plan.Slow(j, 0, 1e6, 1)
	}
	benchEngine(b, sim.EFTRouter{}, sim.Config{Plan: plan})
}

func benchSimRunFaultyGray(b *testing.B) {
	benchEngine(b, sim.EFTRouter{}, sim.Config{Plan: grayPlan()})
}

// grayPlan slows every third server to quarter speed from t = 10 on.
func grayPlan() *faults.Plan {
	plan := faults.Empty(15)
	for j := 0; j < 15; j += 3 {
		plan.Slow(j, 10, 1e6, 4)
	}
	return plan
}

// guardedAdmit is a fully armed overload config: deadline admission,
// stretch shedding and ejection.
func guardedAdmit() *overload.Config {
	return &overload.Config{
		Admission: overload.DeadlineAdmit{D: 20},
		Shedder:   &overload.Shedder{Policy: overload.DropLargestStretch, Watermark: 15},
		Ejector:   &overload.Ejector{},
	}
}

// benchSimRunGuardedAdmit measures a fully armed overload config on the
// same workload.
func benchSimRunGuardedAdmit(b *testing.B) {
	benchEngine(b, sim.EFTRouter{}, sim.Config{Overload: guardedAdmit()})
}

// benchSimRunElasticScale measures a churning membership on the same
// workload: start at 9 of 15 slots, drain to 6, grow back to 12 (with
// warm-up) and settle at 9, exercising the join, drain-handoff and
// effective-set remap paths.
func benchSimRunElasticScale(b *testing.B) {
	horizon := 5000 / (0.8 * 15)
	benchEngine(b, sim.EFTRouter{}, sim.Config{Elastic: &elastic.Config{
		Initial: 9, Min: 6, Max: 15, WarmUp: 0.5,
		Script: []elastic.Event{
			{At: core.Time(horizon * 0.2), Delta: -3},
			{At: core.Time(horizon * 0.5), Delta: 6},
			{At: core.Time(horizon * 0.8), Delta: -3},
		},
	}})
}

// benchSimRunHedgedGray measures hedging under fire: a third of the cluster
// runs 4× slow behind a blind round-robin router, and a delay-triggered
// hedge with cancel-mid-service races copies onto the healthy replicas —
// the copy-id bookkeeping, cancellation and duplicate-work accounting all
// on the hot path. The queue-bound admission mirrors the headline hedge
// experiment and keeps the cancellation re-time cost bounded: cancelling a
// queue entry walks the suffix behind it to re-time it, pushing nothing
// onto any heap (DESIGN.md §13), so hedging against unbounded queues scales
// with their length, not with this machinery.
func benchSimRunHedgedGray(b *testing.B) {
	benchEngine(b, &sim.RoundRobinRouter{}, sim.Config{
		Plan:     grayPlan(),
		Overload: &overload.Config{Admission: overload.QueueBound{MaxQueue: 20}},
		Hedge:    &hedge.Config{Delay: 5, CancelRunning: true},
	})
}

// benchSimRunResilientStorm measures the resilience layer under fire: a
// third of the cluster flaps through the middle of the horizon while the
// full protection stack is armed — jittered backoff draws on every retry,
// budget refills/takes on every dispatch, and breaker observe/trip/probe
// cycles on the flapping servers. This is the metastable-experiment shape
// (cmd/experiments metastable) at benchmark size.
func benchSimRunResilientStorm(b *testing.B) {
	plan := faults.Empty(15)
	for j := 0; j < 15; j += 3 {
		for f := 0; f < 10; f++ {
			from := core.Time(20 + 15*f)
			plan.Down(j, from, from+9)
		}
	}
	benchEngine(b, sim.EFTRouter{}, sim.Config{
		Plan:  plan,
		Retry: sim.RetryPolicy{Backoff: 2, BackoffFactor: 2},
		Resilience: &resilience.Config{
			Jitter: resilience.JitterFull, Seed: 1,
			RetryBudget: 0.1, BudgetBurst: 3,
			Breaker: &resilience.BreakerConfig{
				Window: 5, FailureThreshold: 0.6, Cooldown: 15, HalfOpenProbes: 2,
			},
		},
	})
}

// benchSimRunStackArmed is perfbench's stack configuration at n = 5,000:
// every link of the unified engine armed at once — a 6× gray server and two
// flapping ones under a retry policy, queue-bound admission, stretch
// shedding and the ejector, a scripted scale-down and back, a p95 quantile
// hedge, and jittered budgeted retries behind circuit breakers — run
// through one reused arena with counters, a KeepWorst(20) tracer and a
// flight recorder attached, the tracer rebuilt per run as perfbench does.
// It prices the whole chain where the other entries price one link each.
func benchSimRunStackArmed(b *testing.B) {
	const m = 15
	inst := restrictedInstance(m, 3, 5000)
	horizon := inst.Tasks[inst.N()-1].Release
	plan := faults.Empty(m)
	plan.Slow(4, 0, horizon, 6)
	for f := 0; f < 20; f++ {
		from := 0.2*horizon + core.Time(f)*15
		plan.Down(9, from, from+9)
		plan.Down(10, from, from+9)
	}
	retry := sim.RetryPolicy{MaxAttempts: 6, Backoff: 1, BackoffFactor: 2}
	cfg := &overload.Config{
		Admission: overload.QueueBound{MaxQueue: 20},
		Shedder:   &overload.Shedder{Policy: overload.DropLargestStretch, Watermark: 12, Seed: 1},
		Ejector:   &overload.Ejector{K: 3, Cooldown: 50},
	}
	ecfg := &elastic.Config{Min: 3, WarmUp: 5, Script: []elastic.Event{
		{At: 0.4 * horizon, Delta: -3}, {At: 0.6 * horizon, Delta: 3}}}
	hcfg := &hedge.Config{Quantile: 0.95, MinSamples: 20, CancelRunning: true}
	rcfg := &resilience.Config{
		Jitter: resilience.JitterFull, Seed: 1, RetryBudget: 0.1, BudgetBurst: 3,
		Breaker: &resilience.BreakerConfig{Window: 5, FailureThreshold: 0.6, Cooldown: 15,
			HalfOpenProbes: 2, SlowFactor: 3},
	}
	router := sim.EFTRouter{Tie: sched.MinTie{}}
	arena := sim.NewArena()
	counters := &obs.Counters{}
	flight := obs.NewFlightRecorder(4096)
	run := func() {
		*counters = obs.Counters{}
		flight.Reset()
		probe := obs.Multi(counters, obs.NewTracer(obs.KeepWorst(20)), flight)
		if _, _, err := arena.Run(inst, router, sim.Config{Plan: plan, Retry: retry, Overload: cfg, Elastic: ecfg, Hedge: hcfg, Resilience: rcfg, Probe: probe}); err != nil {
			b.Fatal(err)
		}
	}
	run() // sizes the arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// The Steady pair re-runs the bare engine and the armed overload path
// through a single reused sim.Arena — the steady-state shape of chaos soaks,
// experiment repetition loops and cmd/bench itself. Against their fresh-run
// twins (SimRunFaulty, SimRunGuardedAdmit) they price the per-run
// allocation tax the arena removes; the companion alloc ceilings (≤ 50,
// admit ≤ 100) are pinned by TestRunFaultyAllocs and
// TestRunGuardedAdmitAllocs in internal/sim.
func benchEngineSteady(b *testing.B, cfg sim.Config) {
	inst := restrictedInstance(15, 3, 5000)
	cfg.Plan = faults.Empty(15)
	arena := sim.NewArena()
	if _, _, err := arena.Run(inst, sim.EFTRouter{}, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := arena.Run(inst, sim.EFTRouter{}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSimRunFaultySteady(b *testing.B) { benchEngineSteady(b, sim.Config{}) }

func benchSimRunGuardedAdmitSteady(b *testing.B) {
	benchEngineSteady(b, sim.Config{Overload: guardedAdmit()})
}

// benchOutlierEject measures the ejector kernel alone: one Observe per
// completion on a 15-server cluster with one chronically slow server, plus
// the periodic Readmit sweep.
func benchOutlierEject(b *testing.B) {
	e := &overload.Ejector{K: 3, Cooldown: 50, MinSamples: 5}
	cfg := &overload.Config{Ejector: e}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Reset(15)
		now := core.Time(0)
		for t := 0; t < 2000; t++ {
			now += 0.1
			j := t % 15
			factor := 1.0
			if j == 0 {
				factor = 6
			}
			e.Observe(j, factor, now)
			if t%64 == 0 {
				e.Readmit(now, nil)
			}
		}
	}
}

// benchAuditSchedule pins the default audit of a paper-shaped 1000-task
// EFT-Min schedule with k = 3 ring sets: the certified lower bound and the
// invariant scan, with the FIFO ≡ EFT spot-check skipped by shape. The
// bound's set index finds a task's set through a first-member memo without
// building a key, and its sweep keeps a running minimum per distinct set,
// O(n·c + |sets|²·m) with c = 2 for these rings; the invariant scan checks
// overlaps in the same pass as the per-task checks. Neither allocates per
// task: a slide back to per-machine execution lists shows here as
// allocations, and one back to the O(n²·sets) window scan multiplies ns/op
// several hundredfold.
func benchAuditSchedule(b *testing.B) {
	benchAudit(b, restrictedInstance(15, 3, 1000))
}

// benchAuditScheduleFullSet is benchAuditSchedule on full sets (m = 15,
// 1000 unit tasks at load 0.8), the only entry on the Proposition 1
// spot-check's path: the audit re-runs sched.EFT and sched.FIFO and
// compares their Fmax, about two thirds of its time.
func benchAuditScheduleFullSet(b *testing.B) {
	benchAudit(b, fullSetInstance(15, 1000, 0.8))
}

func benchAudit(b *testing.B, inst *core.Instance) {
	s, _, err := sim.Run(inst, sim.EFTRouter{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := audit.Audit(inst, s, audit.Options{}); !rep.Ok() {
			b.Fatal(rep)
		}
	}
}

func benchSchedEFTRun(b *testing.B) {
	inst := restrictedInstance(15, 3, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.NewEFT(sched.MinTie{}).Run(inst); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSchedFIFORun(b *testing.B) {
	inst := fullSetInstance(64, 5000, 0.9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&sched.FIFO{}).Run(inst); err != nil {
			b.Fatal(err)
		}
	}
}

func benchStatsSummarize(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := stats.Summarize(xs); s.N != len(xs) {
			b.Fatal("bad summary")
		}
	}
}

// benchLoadLPMaxLoad times one exact LP (15) solve at the paper's shape:
// m = 15, k = 3 overlapping, worst-case Zipf s = 1.25.
func benchLoadLPMaxLoad(b *testing.B) {
	mo := loadlp.NewModel(popularity.Zipf(15, 1.25), replicate.Overlapping{K: 3})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mo.MaxLoad()
	}
}

// benchEstimatorBuildM1000 times building the SLO guard for m = 10³
// machines (k = 3 overlapping, Shuffled Zipf s = 1): one LP (15) solve.
func benchEstimatorBuildM1000(b *testing.B) {
	w := popularity.Weights(popularity.Shuffled, 1000, 1, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := overload.NewEstimator(w, replicate.Overlapping{K: 3}); err != nil {
			b.Fatal(err)
		}
	}
}
