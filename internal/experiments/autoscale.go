package experiments

import (
	"fmt"
	"io"
	"math"

	"flowsched/internal/audit"
	"flowsched/internal/core"
	"flowsched/internal/elastic"
	"flowsched/internal/overload"
	"flowsched/internal/replicate"
	"flowsched/internal/sim"
	"flowsched/internal/stats"
	"flowsched/internal/table"
)

// AutoscaleConfig controls the elastic-provisioning experiment: one bursty
// trace (base load, a burst window, base load again) served by three
// provisioning policies on the same slot capacity — statically provisioned
// for the peak, statically provisioned for the mean, and autoscaled between
// them by the estimator-driven controller.
type AutoscaleConfig struct {
	M, K int
	Seed int64
	// BaseLoad / BurstLoad are offered load as a fraction of m.
	BaseLoad, BurstLoad float64
	// BaseTime is the duration of each base phase (before and after the
	// burst); BurstTime the duration of the burst window.
	BaseTime, BurstTime float64
	// SLO is the admitted-Fmax target the provisioning is judged against.
	SLO float64
	// WarmUp is the joiner setup delay of the elastic cells.
	WarmUp float64
	// MeanUtil is the target utilization used to size the static-for-mean
	// cell (members = mean rate / MeanUtil).
	MeanUtil float64
}

// DefaultAutoscale returns the paper-sized experiment: a 12-slot cluster,
// base load 25% with a burst to 85%, SLO of 15 service units.
func DefaultAutoscale() AutoscaleConfig {
	return AutoscaleConfig{
		M: 12, K: 3, Seed: 1,
		BaseLoad: 0.25, BurstLoad: 0.85,
		BaseTime: 120, BurstTime: 60,
		SLO: 15, WarmUp: 1, MeanUtil: 0.8,
	}
}

// AutoscaleRow is one provisioning cell on the shared trace.
type AutoscaleRow struct {
	Cell         string
	Members      string // membership trajectory (initial→peak→final)
	MachineHours float64
	Fmax         float64 // admitted max flow
	P99          float64
	ScaleUps     int
	ScaleDowns   int
	Handoffs     int
	SLOOk        bool
}

// burstyTrace draws the shared workload: unit tasks on overlapping-k sets,
// Poisson arrivals at the base rate, then the burst rate, then the base rate
// again.
func burstyTrace(cfg AutoscaleConfig) *core.Instance {
	rng := subRng(cfg.Seed, 41)
	strat := replicate.Overlapping{K: cfg.K}
	m := cfg.M
	phases := []struct{ rate, dur float64 }{
		{cfg.BaseLoad * float64(m), cfg.BaseTime},
		{cfg.BurstLoad * float64(m), cfg.BurstTime},
		{cfg.BaseLoad * float64(m), cfg.BaseTime},
	}
	var tasks []core.Task
	t := 0.0
	for _, ph := range phases {
		end := t + ph.dur
		for {
			t += rng.ExpFloat64() / ph.rate
			if t >= end {
				t = end
				break
			}
			primary := rng.Intn(m)
			tasks = append(tasks, core.Task{
				Release: core.Time(t), Proc: 1,
				Set: strat.Set(primary, m), Key: primary,
			})
		}
	}
	return core.NewInstance(m, tasks)
}

// AutoscaleSweep runs the elastic-provisioning comparison: the same bursty
// trace under static-peak, static-mean and autoscaled membership, all through
// the engine with an elastic config on the same m-slot ring, each cell
// audited (including the membership invariants). The headline — asserted by
// the experiments tests — is that the autoscaler holds the admitted Fmax
// within the SLO at fewer machine-hours than peak provisioning, while
// static-for-mean blows through the SLO during the burst.
func AutoscaleSweep(w io.Writer, cfg AutoscaleConfig) ([]AutoscaleRow, error) {
	def := DefaultAutoscale()
	if cfg.M == 0 {
		cfg = def
	}
	if cfg.BaseLoad == 0 {
		cfg.BaseLoad, cfg.BurstLoad = def.BaseLoad, def.BurstLoad
	}
	if cfg.BaseTime == 0 {
		cfg.BaseTime, cfg.BurstTime = def.BaseTime, def.BurstTime
	}
	if cfg.SLO == 0 {
		cfg.SLO = def.SLO
	}
	if cfg.WarmUp == 0 {
		cfg.WarmUp = def.WarmUp
	}
	if cfg.MeanUtil == 0 {
		cfg.MeanUtil = def.MeanUtil
	}
	m := cfg.M
	inst := burstyTrace(cfg)

	total := 2*cfg.BaseTime + cfg.BurstTime
	meanRate := (2*cfg.BaseTime*cfg.BaseLoad + cfg.BurstTime*cfg.BurstLoad) * float64(m) / total
	mMean := int(math.Ceil(meanRate / cfg.MeanUtil))
	if mMean < cfg.K {
		mMean = cfg.K
	}
	if mMean > m {
		mMean = m
	}

	auto := func() *elastic.Config {
		return &elastic.Config{
			Initial: mMean, Min: cfg.K, Max: m, WarmUp: core.Time(cfg.WarmUp),
			Auto: &elastic.Autoscaler{
				Guard:           overload.NewEstimatorCapacity(float64(m)),
				MachineCapacity: 1, // unit tasks: one machine sustains rate 1
				UpUtil:          0.85,
				DownUtil:        0.6,
				Sustain:         1,
				Cooldown:        2,
				Step:            2,
			},
		}
	}
	cells := []struct {
		name string
		ecfg *elastic.Config
	}{
		{"static-peak", &elastic.Config{Initial: m, Min: m, Max: m}},
		{"static-mean", &elastic.Config{Initial: mMean, Min: mMean, Max: mMean}},
		{"autoscaled", auto()},
	}

	fmt.Fprintf(w, "Elastic provisioning — machine-hours vs admitted Fmax on a bursty trace\n")
	fmt.Fprintf(w, "capacity %d slots, overlapping(k=%d), n=%d tasks; base ρ=%.0f%%, burst ρ=%.0f%% for %v of %v;\n",
		m, cfg.K, inst.N(), cfg.BaseLoad*100, cfg.BurstLoad*100, cfg.BurstTime, total)
	fmt.Fprintf(w, "mean rate %.2f → static-mean %d machines; SLO Fmax ≤ %v, warm-up %v\n\n",
		meanRate, mMean, cfg.SLO, cfg.WarmUp)

	out := table.New("provisioning", "members", "machine-hours", "admitted Fmax", "p99",
		"scale-ups", "scale-downs", "handoffs", "SLO ok")
	var rows []AutoscaleRow
	// The cells run sequentially and each one's metrics are reduced to a row
	// before the next run, so a single arena serves all three.
	arena := arenas.Get().(*sim.Arena)
	defer arenas.Put(arena)
	for _, cell := range cells {
		s, em, err := arena.Run(inst, sim.EFTRouter{}, sim.Config{Elastic: cell.ecfg})
		if err != nil {
			return nil, fmt.Errorf("autoscale: %s: %w", cell.name, err)
		}
		comps := make([]core.Time, inst.N())
		for i, task := range inst.Tasks {
			comps[i] = task.Release + em.Flows[i]
		}
		report := audit.Audit(inst, s, audit.Options{
			Completions:    comps,
			Dropped:        em.Dropped,
			Membership:     &audit.MembershipInfo{Membership: em.Membership, Dispatched: em.Dispatched},
			SkipLowerBound: true,
		})
		if !report.Ok() {
			return nil, fmt.Errorf("autoscale: %s: audit: %v", cell.name, report.Violations[0])
		}
		flows := em.AdmittedFlows()
		xs := make([]float64, len(flows))
		for i, f := range flows {
			xs[i] = float64(f)
		}
		peak, final := em.Membership.Initial, em.Membership.Final()
		for _, ch := range em.Membership.Changes {
			if ch.Members > peak {
				peak = ch.Members
			}
		}
		row := AutoscaleRow{
			Cell:         cell.name,
			Members:      fmt.Sprintf("%d→%d→%d", em.Membership.Initial, peak, final),
			MachineHours: float64(em.MachineHours),
			Fmax:         float64(em.AdmittedMaxFlow()),
			P99:          stats.Quantile(xs, 0.99),
			ScaleUps:     em.ScaleUps,
			ScaleDowns:   em.ScaleDowns,
			Handoffs:     em.Handoffs,
			SLOOk:        float64(em.AdmittedMaxFlow()) <= cfg.SLO,
		}
		rows = append(rows, row)
		slo := "yes"
		if !row.SLOOk {
			slo = "NO"
		}
		out.AddRow(row.Cell, row.Members,
			fmt.Sprintf("%.0f", row.MachineHours),
			fmt.Sprintf("%.2f", row.Fmax),
			fmt.Sprintf("%.2f", row.P99),
			row.ScaleUps, row.ScaleDowns, row.Handoffs, slo)
	}
	out.Render(w)
	fmt.Fprintln(w, "\nReading: static-peak holds the SLO by paying for the burst the whole run;")
	fmt.Fprintln(w, "static-mean pays the least but its backlog during the burst blows through the")
	fmt.Fprintln(w, "SLO; the autoscaler grows into the burst (warm-up included) and drains back")
	fmt.Fprintln(w, "out, holding the SLO at a fraction of the peak machine-hours. Every cell's")
	fmt.Fprintln(w, "schedule is auditor-checked, membership invariants included.")
	return rows, nil
}
