package main

import (
	"fmt"

	"flowsched/internal/core"
	"flowsched/internal/popularity"
	"flowsched/internal/replicate"
)

// call is one public-function call on one instance: the unit the benchmark
// times. run is the timed part; check verifies its output outside the
// timing and returns the deterministic sim_* values the call produced.
type call struct {
	label string
	tasks int
	run   func(rec *recorder, traced bool) (output, error)
	check func(rec *recorder, o output) (simStats, error)
	// extra, when set, makes further traced-only calls after a traced run
	// (verify splits its audit into the lower bound and the invariants).
	extra func(rec *recorder)
}

// output is what a call hands its check. Only the fields of the call's
// kind are set.
type output struct {
	sched    *core.Schedule
	flows    []core.Time
	stack    *stackOut // stack: the engine's metrics and probe counters
	auditErr error     // verify: the audit's finding, nil when clean
	pick     *pickTimer
	hooks    *hookTimer
}

// simStats are a call's schedule-quality outputs. They depend only on the
// seed, so every pass must reproduce the first pass's values exactly.
type simStats struct {
	fmax, p99           float64
	completed, released int
	lb                  float64 // verify: the certified lower bound on Fmax
}

// suite is a workload's generated inputs: the calls of one pass and, for
// stack, the link ladder (rung 0 the bare engine, each next rung adding one
// link in chain order, the last rung equal to the full call).
type suite struct {
	calls []call
	rungs [][]call
}

type workloadDef struct {
	name  string
	build func(rec *recorder, seed int64, tiny bool) (*suite, error)
	// tailPct is call_ms_tail's percentile. A run makes at least
	// minCalls(tailPct) calls, so at least 10 lie beyond it.
	tailPct float64
}

var workloadDefs = []workloadDef{
	{"paper", buildPaper, 95},
	{"scale", buildScale, 75},
	{"stack", buildStack, 90},
	{"verify", buildVerify, 90},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// subSeed derives an independent seed from the workload seed and a list of
// coordinates (splitmix64 mixing).
func subSeed(seed int64, coords ...int64) int64 {
	z := uint64(seed)
	for _, c := range coords {
		z += uint64(c)*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z >> 1)
}

// flowStats computes the sim_* values from per-task flows, counting only
// the tasks the schedule ran (machine ≥ 0).
func flowStats(s *core.Schedule, flows []core.Time) simStats {
	done := make([]float64, 0, len(flows))
	for i, f := range flows {
		if s.Machine[i] >= 0 {
			done = append(done, f)
		}
	}
	st := simStats{completed: len(done), released: len(flows)}
	st.fmax, st.p99 = maxAndQuantile(done, 0.99)
	return st
}

// simCall routes inst through package-level sim.Run with a fresh
// allocation per call. Restricted instances are traced with the Pick timer;
// full-set EFT-Min (fast) instances are not, so they keep the fast path.
func simCall(label string, inst *core.Instance, rt router, fast bool) call {
	return call{
		label: label,
		tasks: inst.N(),
		run: func(rec *recorder, traced bool) (output, error) {
			r := rt
			var pt *pickTimer
			if traced && !fast {
				pt = &pickTimer{inner: rt}
				r = pt
			}
			s, flows, err := simRun(rec, inst, r, fast)
			if err != nil {
				return output{}, err
			}
			return output{sched: s, flows: flows, pick: pt}, nil
		},
		check: func(rec *recorder, o output) (simStats, error) {
			if err := validate(rec, o.sched); err != nil {
				return simStats{}, err
			}
			st := flowStats(o.sched, o.flows)
			if st.completed != inst.N() {
				return st, fmt.Errorf("%d of %d tasks scheduled", st.completed, inst.N())
			}
			if got := o.sched.MaxFlow(); got != st.fmax {
				return st, fmt.Errorf("metrics Fmax %v != schedule Fmax %v", st.fmax, got)
			}
			return st, nil
		},
	}
}

// paper: the Figure 11 protocol (Section 7.4) run sequentially — m = 15,
// k = 3, n = 10⁴ unit Poisson tasks, three popularity cases × three loads ×
// overlapping/disjoint sets × paperReps repetitions, each instance routed by
// EFT-Min and EFT-Max. Both set strategies of a cell share one arrival
// stream, as in fig11.
//
// The loads keep the median instance clear of the saturated cells: past
// the LP vertical (66% overlapping, 53% disjoint under Zipf(1)) Fmax grows
// with n, and with loads 0.5/0.8/0.95 the median fell between a stable and
// a saturated cell, swinging from 95 to 225 across seeds.
const paperReps = 5

func buildPaper(rec *recorder, seed int64, tiny bool) (*suite, error) {
	m, k, n := 15, 3, 10_000
	if tiny {
		n = 300
	}
	cases := []popularity.Case{popularity.Uniform, popularity.Shuffled, popularity.Worst}
	loads := []float64{0.3, 0.5, 0.8}
	strategies := []replicate.Strategy{replicate.Overlapping{K: k}, replicate.Disjoint{K: k}}
	s := &suite{}
	for rep := 0; rep < paperReps; rep++ {
		for ci, c := range cases {
			for li, load := range loads {
				for _, strat := range strategies {
					inst, err := generate(rec, genSpec{m: m, n: n, load: load, pop: c, strategy: strat,
						seed: subSeed(seed, 1, int64(ci), int64(li), int64(rep))})
					if err != nil {
						return nil, err
					}
					for _, r := range []router{eftMin, eftMax} {
						label := fmt.Sprintf("%v/%s/%.2f/%s#%d", c, strat.Name(), load, r.Name(), rep)
						s.calls = append(s.calls, simCall(label, inst, r, false))
					}
				}
			}
		}
	}
	return s, nil
}

// scale: m = 10³ and n = 10⁶ under EFT-Min, Uniform popularity at 95% load.
// Two full-set instances (sim.Run's O(log m) fast path) and one k = 3
// overlapping instance (the candidate scan) alternate.
func buildScale(rec *recorder, seed int64, tiny bool) (*suite, error) {
	m, n := 1000, 1_000_000
	if tiny {
		m, n = 50, 2000
	}
	kinds := []replicate.Strategy{unrestricted{}, replicate.Overlapping{K: 3}, unrestricted{}}
	s := &suite{}
	for i, strat := range kinds {
		inst, err := generate(rec, genSpec{m: m, n: n, load: 0.95, pop: popularity.Uniform,
			strategy: strat, seed: subSeed(seed, 2, int64(i))})
		if err != nil {
			return nil, err
		}
		_, full := strat.(unrestricted)
		s.calls = append(s.calls, simCall(fmt.Sprintf("%s#%d", strat.Name(), i), inst, eftMin, full))
	}
	return s, nil
}

// stackCalls is the number of instances of the stack workload. With an odd
// count and one call per instance per pass, the median call falls inside
// the middle instance's timings instead of between two instances'; fifteen
// keep the median instance's schedule quality and the allocation per task
// steady from seed to seed.
const stackCalls = 15

// stack: the paper instance shape (Shuffled Zipf(1), overlapping k = 3,
// load 0.8, n = 10⁴) through one reused sim.Arena's RunResilient with every
// link armed and the probes attached.
func buildStack(rec *recorder, seed int64, tiny bool) (*suite, error) {
	m, n := 15, 10_000
	if tiny {
		n = 600
	}
	e := newStackEngine()
	s := &suite{rungs: make([][]call, len(ladderNames))}
	for i := 0; i < stackCalls; i++ {
		inst, err := generate(rec, genSpec{m: m, n: n, load: 0.8, pop: popularity.Shuffled,
			strategy: replicate.Overlapping{K: 3}, seed: subSeed(seed, 3, int64(i))})
		if err != nil {
			return nil, err
		}
		horizon := inst.Tasks[inst.N()-1].Release
		full, err := stackLinks(m, horizon, subSeed(seed, 4, int64(i)))
		if err != nil {
			return nil, err
		}
		for r, l := range ladder(full) {
			s.rungs[r] = append(s.rungs[r], stackCall(fmt.Sprintf("stack#%d/%s", i, ladderNames[r]), inst, e, l))
		}
	}
	s.calls = s.rungs[len(s.rungs)-1]
	return s, nil
}

func stackCall(label string, inst *core.Instance, e *stackEngine, l *links) call {
	return call{
		label: label,
		tasks: inst.N(),
		run: func(rec *recorder, traced bool) (output, error) {
			return e.call(rec, inst, l, traced)
		},
		check: func(rec *recorder, o output) (simStats, error) {
			st := flowStats(o.sched, o.flows)
			if !l.probes || l.overload == nil {
				return st, nil // lower ladder rungs are timed, not audited
			}
			return st, e.audit(rec, inst, o.sched, o.stack, l, st.completed)
		},
	}
}

// verify: audit.Audit with the certified lower bound on, over complete
// sim.Run schedules of n = 10³ — k = 3 overlapping instances (the per-set
// bound) alternating with full-set ones (the Proposition 1 FIFO ≡ EFT
// spot-check). Both kinds cost about the same to audit; an odd count puts
// the median call inside one instance's timings.
func buildVerify(rec *recorder, seed int64, tiny bool) (*suite, error) {
	m, n := 15, 1000
	if tiny {
		n = 150
	}
	s := &suite{}
	for i := 0; i < verifyCalls; i++ {
		full := i%2 == 1
		var strat replicate.Strategy = replicate.Overlapping{K: 3}
		if full {
			strat = unrestricted{}
		}
		inst, err := generate(rec, genSpec{m: m, n: n, load: 0.8, pop: popularity.Uniform,
			strategy: strat, seed: subSeed(seed, 5, int64(i))})
		if err != nil {
			return nil, err
		}
		sched, flows, err := simRun(rec, inst, eftMin, full)
		if err != nil {
			return nil, err
		}
		s.calls = append(s.calls, verifyCall(fmt.Sprintf("%s#%d", strat.Name(), i), inst, sched, flows))
	}
	return s, nil
}

// verifyCalls is odd for the same reason as stackCalls; 21 keep the median
// instance's Fmax steady from seed to seed.
const verifyCalls = 21

func verifyCall(label string, inst *core.Instance, sched *core.Schedule, flows []core.Time) call {
	lb := -1.0 // computed once, by the first check
	return call{
		label: label,
		tasks: inst.N(),
		run: func(rec *recorder, traced bool) (output, error) {
			return output{sched: sched, flows: flows, auditErr: auditFull(rec, inst, sched)}, nil
		},
		check: func(rec *recorder, o output) (simStats, error) {
			if o.auditErr != nil {
				return simStats{}, o.auditErr
			}
			if lb < 0 {
				lb = lowerBound(nil, inst)
			}
			st := flowStats(o.sched, o.flows)
			st.lb = lb
			if st.completed != inst.N() || st.fmax < lb {
				return st, fmt.Errorf("%d of %d tasks scheduled, Fmax %v, lower bound %v", st.completed, inst.N(), st.fmax, lb)
			}
			return st, nil
		},
		extra: func(rec *recorder) {
			lowerBound(rec, inst)
			auditInvariants(rec, inst, sched)
		},
	}
}
