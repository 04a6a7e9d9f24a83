package experiments

import (
	"fmt"
	"io"
	"math"

	"flowsched/internal/core"
	"flowsched/internal/obs"
	"flowsched/internal/overload"
	"flowsched/internal/replicate"
	"flowsched/internal/sim"
	"flowsched/internal/workload"
)

// PostmortemConfig controls the worst-task postmortem: one overloaded
// repetition of the overload-sweep workload per policy, traced with a
// KeepWorst tracer, reported as causal chains.
type PostmortemConfig struct {
	M, K      int
	N         int
	SBias     float64
	Seed      int64
	Load      float64 // offered load as a fraction of m (push past λ*)
	Deadline  float64 // admission budget D of the deadline policy
	Watermark float64 // shed watermark (max queue age)
	Worst     int     // traces reported per policy
}

// DefaultPostmortem mirrors the overload sweep at its worst sampled point:
// 130% offered load, deadline 10, watermark 8, five traces per policy.
func DefaultPostmortem() PostmortemConfig {
	return PostmortemConfig{
		M: 15, K: 3, N: 10000, SBias: 1, Seed: 1,
		Load: 1.3, Deadline: 10, Watermark: 8, Worst: 5,
	}
}

// Postmortem re-runs the overload sweep's overloaded cell with a span
// tracer attached (obs.Tracer, KeepWorst retention) and prints the causal
// chain of each policy's worst-flow tasks: when the task arrived, every
// dispatch attempt with its forecast interval and outcome, and how it ended.
// Where the sweep's table says "the tail got worse", the postmortem says
// which tasks are the tail and what happened to each of them — with O(k)
// trace memory no matter how large the run.
func Postmortem(w io.Writer, cfg PostmortemConfig) error {
	if cfg.Worst < 1 {
		cfg.Worst = 5
	}
	strat := replicate.Overlapping{K: cfg.K}
	policies := []struct {
		name string
		mk   func() *overload.Config
	}{
		{"admit-all", func() *overload.Config { return nil }},
		{"deadline", func() *overload.Config {
			return &overload.Config{Admission: overload.DeadlineAdmit{D: core.Time(cfg.Deadline)}}
		}},
		{"shed-stretch", func() *overload.Config {
			return &overload.Config{Shedder: &overload.Shedder{
				Policy: overload.DropLargestStretch, Watermark: core.Time(cfg.Watermark), Seed: cfg.Seed}}
		}},
	}

	fmt.Fprintf(w, "Postmortem — causal chains of the %d worst-flow tasks per overload policy\n", cfg.Worst)
	fmt.Fprintf(w, "m=%d k=%d n=%d overlapping(k=%d), offered load %.0f%% of m (past capacity)\n\n",
		cfg.M, cfg.K, cfg.N, cfg.K, cfg.Load*100)

	for pi, pol := range policies {
		inst, err := workload.Generate(workload.Config{
			M: cfg.M, N: cfg.N, Rate: workload.RateForLoad(cfg.Load, cfg.M),
			Weights:  shuffledWeights(cfg.M, cfg.SBias, subRng(cfg.Seed, 31, 0)),
			Strategy: strat,
		}, subRng(cfg.Seed, 33, int64(pi)))
		if err != nil {
			return err
		}
		tracer := obs.NewTracer(obs.KeepWorst(cfg.Worst))
		arena := arenas.Get().(*sim.Arena)
		_, _, err = arena.Run(inst, sim.EFTRouter{}, sim.Config{Overload: pol.mk(), Probe: obs.Multi(tracer)})
		arenas.Put(arena)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "policy %s: %d worst of %d tasks (makespan %.4g)\n",
			pol.name, cfg.Worst, inst.N(), float64(tracer.Makespan()))
		for _, tr := range tracer.Worst(cfg.Worst) {
			fmt.Fprintf(w, "  %s\n", causalChain(tr))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "Reading: admit-all's tail is pure queueing (one late attempt after a long")
	fmt.Fprintln(w, "wait); the controlled policies convert that wait into explicit rejections")
	fmt.Fprintln(w, "and sheds, so their worst chains end early instead of late.")
	return nil
}

// causalChain renders one task trace as a single-line causal chain.
func causalChain(tr *obs.TaskTrace) string {
	flow := "unfinished"
	if !math.IsNaN(float64(tr.Flow)) {
		flow = fmt.Sprintf("flow %.4g", float64(tr.Flow))
	}
	s := fmt.Sprintf("T%-6d %-9s %-12s released t=%.4g", tr.Task, tr.State, flow, float64(tr.Release))
	for k, a := range tr.Attempts {
		s += fmt.Sprintf("; attempt %d on M%d [%.4g,%.4g)", k+1, a.Server+1, float64(a.Start), float64(a.End))
		switch a.Outcome {
		case obs.AttemptCrashed:
			s += fmt.Sprintf(" crashed t=%.4g", float64(a.AbortAt))
		case obs.AttemptHandedOff:
			s += fmt.Sprintf(" handed off t=%.4g", float64(a.AbortAt))
		case obs.AttemptShed:
			s += fmt.Sprintf(" shed t=%.4g", float64(a.AbortAt))
		}
	}
	switch {
	case tr.State == obs.TraceRejected:
		s += fmt.Sprintf("; rejected at t=%.4g (%s)", float64(tr.EndAt), tr.Reason)
	case tr.State == obs.TraceShed && len(tr.Attempts) == 0:
		s += fmt.Sprintf("; shed before dispatch at t=%.4g (%s)", float64(tr.EndAt), tr.Reason)
	case tr.State == obs.TraceCompleted:
		s += fmt.Sprintf("; completed t=%.4g", float64(tr.EndAt))
	case tr.State == obs.TraceDropped:
		s += fmt.Sprintf("; dropped t=%.4g", float64(tr.EndAt))
	}
	return s
}
