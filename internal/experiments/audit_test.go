package experiments

import (
	"testing"

	"flowsched/internal/audit"
	"flowsched/internal/core"
	"flowsched/internal/faults"
	"flowsched/internal/replicate"
	"flowsched/internal/sched"
	"flowsched/internal/sim"
	"flowsched/internal/workload"
)

// TestTable1SchedulesAuditClean regenerates every schedule behind the Table 1
// verification rows (same (Seed, m, trial) randomness as Table1) and runs the
// invariant auditor over each: the experiment data rests on these schedules
// being structurally valid, not just on their max-flow ratios.
func TestTable1SchedulesAuditClean(t *testing.T) {
	cfg := DefaultTable1()
	for _, m := range cfg.Ms {
		for trial := 0; trial < cfg.Trials; trial++ {
			rng := subRng(cfg.Seed, int64(m), int64(trial))
			tasks := make([]core.Task, cfg.N)
			for i := range tasks {
				tasks[i] = core.Task{
					Release: rng.Float64() * 4,
					Proc:    0.2 + rng.Float64()*2,
				}
			}
			inst := core.NewInstance(m, tasks)
			s, err := sched.NewEFT(sched.MinTie{}).Run(inst)
			if err != nil {
				t.Fatal(err)
			}
			if rep := audit.Audit(inst, s, audit.Options{}); !rep.Ok() {
				t.Fatalf("m=%d trial=%d: %v", m, trial, rep)
			}
		}
	}
}

// TestFaultSweepSchedulesAuditClean regenerates the workload × fault-plan
// cells of the fault-tolerance sweep (same subRng salts as FaultTolerance)
// and audits every faulty schedule, including crashed-and-dropped tasks and
// downtime consistency against the generating plan.
func TestFaultSweepSchedulesAuditClean(t *testing.T) {
	cfg := smallFaultTolerance()
	strategies := []replicate.Strategy{
		replicate.None{},
		replicate.Disjoint{K: cfg.K},
		replicate.Overlapping{K: cfg.K},
	}
	routers := []struct {
		name string
		mk   func() sim.Router
	}{
		{"EFT-Min", func() sim.Router { return sim.EFTRouter{} }},
		{"JSQ", func() sim.Router { return sim.JSQRouter{} }},
	}
	for si, strat := range strategies {
		for ri, rt := range routers {
			for mi, mtbf := range cfg.MTBFs {
				for rep := 0; rep < cfg.Reps; rep++ {
					inst, err := workload.Generate(workload.Config{
						M: cfg.M, N: cfg.N, Rate: workload.RateForLoad(cfg.Load, cfg.M),
						Weights: shuffledWeights(cfg.M, cfg.SBias,
							subRng(cfg.Seed, 13, int64(si), int64(ri), int64(mi), int64(rep))),
						Strategy: strat,
					}, subRng(cfg.Seed, 14, int64(rep)))
					if err != nil {
						t.Fatal(err)
					}
					horizon := inst.Tasks[inst.N()-1].Release
					plan := faults.Generate(cfg.M, horizon, mtbf, cfg.MTTR,
						subRng(cfg.Seed, 15, int64(mi), int64(rep)))
					s, fm, err := sim.NewArena().Run(inst, rt.mk(), sim.Config{Plan: plan, Retry: cfg.Pol})
					if err != nil {
						t.Fatal(err)
					}
					comps := make([]core.Time, inst.N())
					for i, task := range inst.Tasks {
						comps[i] = task.Release + fm.Flows[i]
					}
					report := audit.Audit(inst, s, audit.Options{
						Plan:        plan,
						Completions: comps,
						Dropped:     fm.Dropped,
					})
					if !report.Ok() {
						t.Fatalf("%s/%s mtbf=%v rep=%d: %v", strat.Name(), rt.name, mtbf, rep, report)
					}
				}
			}
		}
	}
}
