package main

// Every call the benchmark makes into the flowsched program goes through
// this file, each wrapped in a span of the calling layer, and so does every
// read of what those calls return: the rest of the benchmark sees core
// instances and schedules, per-task flows and its own result types. Changing
// how the program is entered (for example folding the sim.Run* entry points
// and their metrics into one) changes only this file.

import (
	"fmt"
	"math/rand"

	"flowsched/internal/audit"
	"flowsched/internal/core"
	"flowsched/internal/elastic"
	"flowsched/internal/faults"
	"flowsched/internal/hedge"
	"flowsched/internal/obs"
	"flowsched/internal/offline"
	"flowsched/internal/overload"
	"flowsched/internal/popularity"
	"flowsched/internal/replicate"
	"flowsched/internal/resilience"
	"flowsched/internal/sched"
	"flowsched/internal/sim"
	"flowsched/internal/workload"
)

// router is the program's dispatch interface, named here so that the rest
// of the benchmark need not import sim.
type router = sim.Router

// Routers of the paper's Figure 11: EFT with the Min and Max tie-breaks.
var (
	eftMin router = sim.EFTRouter{Tie: sched.MinTie{}}
	eftMax router = sim.EFTRouter{Tie: sched.MaxTie{}}
)

// unrestricted is the replication strategy of full-set tasks: a nil
// processing set lets a task run anywhere.
type unrestricted struct{}

func (unrestricted) Name() string              { return "unrestricted" }
func (unrestricted) Set(u, m int) core.ProcSet { return nil }

// genSpec is one generated instance: m machines, n unit Poisson tasks at the
// given load (fraction of m), primaries drawn from the popularity case with
// Zipf shape 1, sets from the strategy.
type genSpec struct {
	m, n     int
	load     float64
	pop      popularity.Case
	strategy replicate.Strategy
	seed     int64
}

func generate(rec *recorder, g genSpec) (*core.Instance, error) {
	sp := rec.begin("workload", "workload.Generate")
	defer rec.end(sp)
	weights := popularity.Weights(g.pop, g.m, 1, rand.New(rand.NewSource(g.seed^0x5eed)))
	return workload.Generate(workload.Config{
		M: g.m, N: g.n, Rate: workload.RateForLoad(g.load, g.m),
		Weights: weights, Strategy: g.strategy,
	}, rand.New(rand.NewSource(g.seed)))
}

// simRun calls sim.Run and returns the schedule and per-task flows; fast
// marks a full-set EFT-Min instance, which takes the O(log m) fast path, so
// its span is told apart.
func simRun(rec *recorder, inst *core.Instance, r router, fast bool) (*core.Schedule, []core.Time, error) {
	name := "sim.Run"
	if fast {
		name = "sim.Run[fast]"
	}
	sp := rec.begin("sim", name)
	defer rec.end(sp)
	s, m, err := sim.Run(inst, r)
	if err != nil {
		return nil, nil, err
	}
	return s, m.Flows, nil
}

func validate(rec *recorder, s *core.Schedule) error {
	sp := rec.begin("core", "Schedule.Validate")
	defer rec.end(sp)
	return s.Validate()
}

// links holds the configuration of each engine link of the stack workload.
// A nil field switches that link off; the zero value is the bare engine.
type links struct {
	plan     *faults.Plan
	retry    sim.RetryPolicy
	overload *overload.Config
	elastic  *elastic.Config
	hedge    *hedge.Config
	resil    *resilience.Config
	probes   bool
}

// stackLinks arms every engine link for an instance whose arrivals span
// about horizon time units on m machines.
func stackLinks(m int, horizon core.Time, seed int64) (*links, error) {
	plan := faults.Empty(m)
	plan.Slow(4, 0, horizon, 6) // a 6× gray server for the whole run
	for f := 0; f < 20; f++ {   // two servers flapping: down 60% of each 15-unit period
		from := 0.2*horizon + core.Time(f)*15
		plan.Down(9, from, from+9)
		plan.Down(10, from, from+9)
	}
	l := &links{
		plan:  plan,
		retry: sim.RetryPolicy{MaxAttempts: 6, Backoff: 1, BackoffFactor: 2},
		overload: &overload.Config{
			Admission: overload.QueueBound{MaxQueue: 20},
			Shedder:   &overload.Shedder{Policy: overload.DropLargestStretch, Watermark: 12, Seed: seed},
			Ejector:   &overload.Ejector{K: 3, Cooldown: 50},
		},
		elastic: &elastic.Config{Min: 3, WarmUp: 5, Script: []elastic.Event{
			{At: 0.4 * horizon, Delta: -3}, {At: 0.6 * horizon, Delta: 3}}},
		hedge: &hedge.Config{Quantile: 0.95, MinSamples: 20, CancelRunning: true},
		resil: &resilience.Config{
			Jitter: resilience.JitterFull, Seed: seed, RetryBudget: 0.1, BudgetBurst: 3,
			Breaker: &resilience.BreakerConfig{Window: 5, FailureThreshold: 0.6, Cooldown: 15,
				HalfOpenProbes: 2, SlowFactor: 3},
		},
		probes: true,
	}
	return l, l.overload.Validate(m)
}

// ladder returns the rungs of the link ladder for l: the bare engine, then
// faults, overload, elastic, hedge, resilience and probes added in turn.
func ladder(l *links) []*links {
	rungs := []*links{{}}
	add := func(f func(r *links)) {
		r := *rungs[len(rungs)-1]
		f(&r)
		rungs = append(rungs, &r)
	}
	add(func(r *links) { r.plan, r.retry = l.plan, l.retry })
	add(func(r *links) { r.overload = l.overload })
	add(func(r *links) { r.elastic = l.elastic })
	add(func(r *links) { r.hedge = l.hedge })
	add(func(r *links) { r.resil = l.resil })
	add(func(r *links) { r.probes = true })
	return rungs
}

// ladderNames names the link each rung adds, rung 0 being the bare engine.
var ladderNames = []string{"engine", "faults", "overload", "elastic", "hedge", "resilience", "obs"}

// stackEngine is what every stack call reuses: one arena and one set of
// probes — counters, a KeepWorst(20) tracer and a flight recorder.
type stackEngine struct {
	arena    *sim.Arena
	counters *obs.Counters
	flight   *obs.FlightRecorder
}

func newStackEngine() *stackEngine {
	return &stackEngine{arena: sim.NewArena(), counters: &obs.Counters{}, flight: obs.NewFlightRecorder(4096)}
}

// stackOut is one stack call's engine output. Only this file reads it.
type stackOut struct {
	em       *sim.ElasticMetrics
	counters obs.Counters
}

// call runs inst through the arena's RunResilient with the given links. A
// traced call times Pick and every probe hook.
func (e *stackEngine) call(rec *recorder, inst *core.Instance, l *links, traced bool) (output, error) {
	var o output
	r := eftMin
	if traced {
		o.pick = &pickTimer{inner: eftMin}
		r = o.pick
	}
	var probe obs.Probe
	if l.probes {
		// The tracer has no reset, so it is rebuilt: part of what attaching
		// it costs.
		*e.counters = obs.Counters{}
		e.flight.Reset()
		probe = obs.Multi(e.counters, obs.NewTracer(obs.KeepWorst(20)), e.flight)
		if traced {
			o.hooks = newHookTimer(probe)
			probe = o.hooks
		}
	}
	sp := rec.begin("sim", "Arena.RunResilient")
	s, em, err := e.arena.RunResilient(inst, r, l.plan, l.retry, l.overload, l.elastic, l.hedge, l.resil, probe)
	rec.end(sp)
	if err != nil {
		return output{}, err
	}
	o.sched, o.flows, o.stack = s, em.Flows, &stackOut{em: em, counters: *e.counters}
	return o, nil
}

// audit checks a full stack call with the option set chaos.CheckRecorded
// builds, minus the certified lower bound, and that the engine's completed
// count matches the completed tasks of the schedule.
func (e *stackEngine) audit(rec *recorder, inst *core.Instance, s *core.Schedule, out *stackOut, l *links, completed int) error {
	em := out.em
	om := &em.OverloadMetrics
	comps := make([]core.Time, inst.N())
	for i, t := range inst.Tasks {
		comps[i] = t.Release + om.Flows[i]
	}
	opts := audit.Options{
		Plan: l.plan, Completions: comps, Dropped: om.Dropped,
		Overload:       &audit.OverloadInfo{Rejected: om.Rejected, Shed: om.Shed},
		Membership:     &audit.MembershipInfo{Membership: em.Membership, Dispatched: em.Dispatched},
		SkipLowerBound: true,
		Recorder:       e.flight,
	}
	if b, ok := l.overload.Admission.(overload.Budgeted); ok {
		opts.Overload.Deadline = b.Budget()
	}
	opts.Hedge = &audit.HedgeInfo{
		Hedged: em.Hedged, CopyServer: em.HedgeCopyServer, CopyAt: em.HedgeCopyAt,
		WonByCopy: em.HedgeWonByCopy, Busy: em.Busy, DuplicateWork: em.DuplicateWork,
	}
	opts.Resilience = &audit.ResilienceInfo{
		RetriesRequested: em.RetriesRequested, RetriesIssued: em.RetriesIssued,
		RetriesDropped: em.RetriesDropped, BudgetDropped: em.BudgetDropped,
		Spans: em.BreakerSpans, ProbeDispatch: em.ProbeDispatch, Dispatched: em.Dispatched,
		BreakerOpens: em.BreakerOpens, BreakerCloses: em.BreakerCloses,
	}
	sp := rec.begin("audit", "audit.Audit(SkipLowerBound)")
	err := audit.Audit(inst, s, opts).Err()
	rec.end(sp)
	if err == nil && completed != om.CompletedCount() {
		err = fmt.Errorf("%d tasks scheduled, metrics count %d completed", completed, om.CompletedCount())
	}
	return err
}

// stackTally is what the per-layer metrics read from one stack call.
type stackTally struct {
	tasks, hedges, copyWins, requested, dropped, opens int
	rejected, shed, ejections, scaleEvents             int
	retries                                            int64
	dupWork, busy                                      float64
}

func (o *stackOut) tally() stackTally {
	em := o.em
	t := stackTally{
		tasks: len(em.Flows), hedges: em.HedgesIssued, copyWins: em.HedgeWinsCopy,
		requested: em.RetriesRequested, dropped: em.RetriesDropped, opens: em.BreakerOpens,
		rejected: em.RejectedCount(), shed: em.ShedCount(), ejections: em.Ejections,
		scaleEvents: em.ScaleUps + em.ScaleDowns, retries: o.counters.Retries,
		dupWork: em.DuplicateWork,
	}
	for _, b := range em.Busy {
		t.busy += b
	}
	return t
}

// auditFull audits a complete schedule with every check on, the certified
// lower bound and the FIFO ≡ EFT spot-check included.
func auditFull(rec *recorder, inst *core.Instance, s *core.Schedule) error {
	sp := rec.begin("audit", "audit.Audit")
	defer rec.end(sp)
	return audit.Audit(inst, s, audit.Options{}).Err()
}

// auditInvariants is auditFull without the lower bound.
func auditInvariants(rec *recorder, inst *core.Instance, s *core.Schedule) error {
	sp := rec.begin("audit", "audit.Audit(SkipLowerBound)")
	defer rec.end(sp)
	return audit.Audit(inst, s, audit.Options{SkipLowerBound: true}).Err()
}

func lowerBound(rec *recorder, inst *core.Instance) core.Time {
	sp := rec.begin("offline", "offline.LowerBound")
	defer rec.end(sp)
	return offline.LowerBound(inst)
}
