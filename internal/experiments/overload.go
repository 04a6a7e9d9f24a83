package experiments

import (
	"fmt"
	"io"

	"flowsched/internal/audit"
	"flowsched/internal/core"
	"flowsched/internal/loadlp"
	"flowsched/internal/overload"
	"flowsched/internal/parallel"
	"flowsched/internal/replicate"
	"flowsched/internal/sim"
	"flowsched/internal/stats"
	"flowsched/internal/table"
	"flowsched/internal/workload"
)

// OverloadSweepConfig controls the goodput-vs-load sweep: the same
// overlapping-replication cluster is pushed from comfortable load past its
// LP (15) capacity λ*, once per overload-control policy.
type OverloadSweepConfig struct {
	M, K      int
	N         int
	Reps      int
	SBias     float64
	Seed      int64
	Loads     []float64 // offered load as a fraction of m (ρ)
	Deadline  float64   // admission budget D of the deadline policy
	MaxQueue  int       // per-server queue bound of the queue policy
	Watermark float64   // shed watermark (max queue age)
}

// DefaultOverloadSweep returns the paper-sized sweep: load from 60% to 150%
// of the cluster, deadline 10 service units, queue bound 8, watermark 8.
func DefaultOverloadSweep() OverloadSweepConfig {
	return OverloadSweepConfig{
		M: 15, K: 3, N: 10000, Reps: 3, SBias: 1, Seed: 1,
		Loads:    []float64{0.6, 0.8, 0.9, 1.0, 1.1, 1.3, 1.5},
		Deadline: 10, MaxQueue: 8, Watermark: 8,
	}
}

// OverloadSweepRow is one policy×load cell (medians over repetitions).
type OverloadSweepRow struct {
	Policy      string
	Load        float64 // offered ρ, fraction of m
	GoodputPct  float64
	Fmax        float64 // admitted (completed-task) max flow
	P99         float64 // admitted p99 flow
	RejectedPct float64
	ShedPct     float64
}

// OverloadSweep compares overload-control policies as offered load crosses
// the capacity λ* of LP (15). Under admit-all the admitted Fmax grows with
// the excess load (the queue is unstable past λ*, Theorem 2's regime);
// admission control and shedding give up a bounded slice of goodput to keep
// the flow time of what they do serve bounded — the deadline policy's bound
// Fmax ≤ D + p_max is re-checked by the schedule auditor in every cell.
func OverloadSweep(w io.Writer, cfg OverloadSweepConfig) ([]OverloadSweepRow, error) {
	if len(cfg.Loads) == 0 {
		cfg.Loads = DefaultOverloadSweep().Loads
	}
	if cfg.Reps < 1 {
		cfg.Reps = 1
	}
	strat := replicate.Overlapping{K: cfg.K}

	// λ* depends only on the popularity weights, not on the offered load:
	// median it over the per-repetition weight draws.
	var lambdas []float64
	for rep := 0; rep < cfg.Reps; rep++ {
		weights := shuffledWeights(cfg.M, cfg.SBias, subRng(cfg.Seed, 31, int64(rep)))
		lambdas = append(lambdas, loadlp.NewModel(weights, strat).MaxLoad())
	}
	lambdaStar := stats.Median(lambdas)

	policies := []struct {
		name string
		mk   func() *overload.Config
	}{
		{"admit-all", func() *overload.Config { return nil }},
		{"queue-bound", func() *overload.Config {
			return &overload.Config{Admission: overload.QueueBound{MaxQueue: cfg.MaxQueue}}
		}},
		{"deadline", func() *overload.Config {
			return &overload.Config{Admission: overload.DeadlineAdmit{D: core.Time(cfg.Deadline)}}
		}},
		{"shed-stretch", func() *overload.Config {
			return &overload.Config{Shedder: &overload.Shedder{
				Policy: overload.DropLargestStretch, Watermark: core.Time(cfg.Watermark), Seed: cfg.Seed}}
		}},
	}

	fmt.Fprintf(w, "Overload control — goodput vs offered load across the capacity λ*\n")
	fmt.Fprintf(w, "m=%d k=%d n=%d overlapping(k=%d), capacity λ* ≈ %.2f (%.0f%% of m);\n",
		cfg.M, cfg.K, cfg.N, cfg.K, lambdaStar, lambdaStar/float64(cfg.M)*100)
	fmt.Fprintf(w, "deadline D=%v queue bound %d watermark %v; medians over %d reps\n\n",
		cfg.Deadline, cfg.MaxQueue, cfg.Watermark, cfg.Reps)

	out := table.New("policy", "ρ %", "goodput %", "admitted Fmax", "admitted p99",
		"rejected %", "shed %")
	var rows []OverloadSweepRow
	for _, pol := range policies {
		for li, load := range cfg.Loads {
			li, load, pol := li, load, pol
			type repStats struct {
				goodput, fmax, p99, rejected, shed float64
			}
			reps, err := parallel.MapErr(cfg.Reps, 0, func(rep int) (repStats, error) {
				inst, err := workload.Generate(workload.Config{
					M: cfg.M, N: cfg.N, Rate: workload.RateForLoad(load, cfg.M),
					Weights:  shuffledWeights(cfg.M, cfg.SBias, subRng(cfg.Seed, 31, int64(rep))),
					Strategy: strat,
				}, subRng(cfg.Seed, 32, int64(li), int64(rep)))
				if err != nil {
					return repStats{}, err
				}
				c := pol.mk()
				arena := arenas.Get().(*sim.Arena)
				defer arenas.Put(arena)
				s, om, err := arena.Run(inst, sim.EFTRouter{}, sim.Config{Overload: c})
				if err != nil {
					return repStats{}, err
				}
				if c != nil && c.Admission != nil {
					// Re-check the admitted-flow bound with the schedule
					// auditor: for the deadline policy this is the
					// Fmax ≤ D + p_max invariant the engine promises.
					info := &audit.OverloadInfo{Rejected: om.Rejected, Shed: om.Shed}
					if b, ok := c.Admission.(overload.Budgeted); ok {
						info.Deadline = b.Budget()
					}
					comps := make([]core.Time, inst.N())
					for i, task := range inst.Tasks {
						comps[i] = task.Release + om.Flows[i]
					}
					report := audit.Audit(inst, s, audit.Options{
						Completions:    comps,
						Dropped:        om.Dropped,
						Overload:       info,
						SkipLowerBound: true, SkipFIFOEquiv: true,
					})
					if !report.Ok() {
						return repStats{}, fmt.Errorf("policy %s ρ=%.0f%% rep %d: audit: %v",
							pol.name, load*100, rep, report.Violations[0])
					}
				}
				flows := om.AdmittedFlows()
				xs := make([]float64, len(flows))
				for i, f := range flows {
					xs[i] = float64(f)
				}
				return repStats{
					goodput:  om.Goodput() * 100,
					fmax:     float64(om.AdmittedMaxFlow()),
					p99:      stats.Quantile(xs, 0.99),
					rejected: float64(om.RejectedCount()) / float64(inst.N()) * 100,
					shed:     float64(om.ShedCount()) / float64(inst.N()) * 100,
				}, nil
			})
			if err != nil {
				return nil, err
			}
			var goodput, fmax, p99, rejected, shed []float64
			for _, r := range reps {
				goodput = append(goodput, r.goodput)
				fmax = append(fmax, r.fmax)
				p99 = append(p99, r.p99)
				rejected = append(rejected, r.rejected)
				shed = append(shed, r.shed)
			}
			row := OverloadSweepRow{
				Policy:      pol.name,
				Load:        load,
				GoodputPct:  stats.Median(goodput),
				Fmax:        stats.Median(fmax),
				P99:         stats.Median(p99),
				RejectedPct: stats.Median(rejected),
				ShedPct:     stats.Median(shed),
			}
			rows = append(rows, row)
			loadLabel := fmt.Sprintf("%.0f", load*100)
			if load*float64(cfg.M) > lambdaStar {
				loadLabel += " *" // past capacity
			}
			out.AddRow(row.Policy, loadLabel,
				fmt.Sprintf("%.2f", row.GoodputPct),
				row.Fmax, row.P99,
				fmt.Sprintf("%.2f", row.RejectedPct),
				fmt.Sprintf("%.2f", row.ShedPct))
		}
	}
	out.Render(w)
	fmt.Fprintln(w, "\nReading: rows marked * offer more than the capacity λ*. Admit-all serves")
	fmt.Fprintln(w, "everything and its admitted Fmax grows with the backlog; the controlled")
	fmt.Fprintln(w, "policies trade a bounded slice of goodput for a bounded flow time of the")
	fmt.Fprintln(w, "admitted work (the deadline rows are auditor-checked: Fmax ≤ D + p_max).")
	return rows, nil
}
