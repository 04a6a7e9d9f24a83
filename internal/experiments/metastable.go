package experiments

import (
	"fmt"
	"io"
	"math"

	"flowsched/internal/core"
	"flowsched/internal/faults"
	"flowsched/internal/obs"
	"flowsched/internal/overload"
	"flowsched/internal/replicate"
	"flowsched/internal/resilience"
	"flowsched/internal/sim"
	"flowsched/internal/stats"
	"flowsched/internal/table"
	"flowsched/internal/workload"
)

// MetastableConfig controls the metastable-failure experiment: a flapping
// outage of a fixed fraction of the cluster that eventually heals, run with
// and without the resilience layer, plus a gray-detection cell comparing
// the breakers' slow-completion tripwire against the EWMA outlier ejector.
type MetastableConfig struct {
	M, K  int
	N     int
	Reps  int
	SBias float64
	Seed  int64
	Load  float64 // offered load (fraction of m)

	// Storm cell: ⌈OutageFrac·m⌉ servers flap — down for FlapDuty of each
	// FlapPeriod — from OutageStart for Flaps periods, then heal for good.
	OutageFrac  float64
	OutageStart core.Time
	FlapPeriod  core.Time
	FlapDuty    float64
	Flaps       int

	// Retry policy shared by both storm policies (plain exponential
	// backoff), and the protections of the resilient one.
	Backoff     core.Time
	RetryBudget float64
	BudgetBurst float64
	Breaker     resilience.BreakerConfig

	// Gray cell: one server runs GrayFactor× slow from the start (a gray
	// server joining the cluster); the breaker counts completions at
	// ≥ GraySlowFactor× nominal as failures, the ejector uses its
	// EWMA-vs-cluster-median rule. Routing is forecast-blind round-robin —
	// a gray fault is invisible to the scheduler's estimates by definition.
	GrayLoad       float64
	GrayFactor     float64
	GraySlowFactor float64
}

// DefaultMetastable returns the paper-sized experiment: 15 servers at 72%
// load, 30% of the cluster flapping through twenty-four 15-unit periods
// (down 60% of each), retries on a plain backoff of 2 doubling per attempt,
// against the protected stack — full jitter, a 10% retry budget with a
// burst of 3, and breakers that open after 3 failures in a window of 5 with
// a cooldown of one flap period. The healthy 70% of the cluster keeps slack
// through the outage, so the post-heal damage is the retry storm itself,
// not raw capacity loss — the regime the resilience layer targets.
func DefaultMetastable() MetastableConfig {
	return MetastableConfig{
		M: 15, K: 3, N: 10000, Reps: 3, SBias: 0, Seed: 1,
		Load:        0.72,
		OutageFrac:  0.3,
		OutageStart: 260, FlapPeriod: 15, FlapDuty: 0.6, Flaps: 24,
		Backoff: 2, RetryBudget: 0.1, BudgetBurst: 3,
		Breaker: resilience.BreakerConfig{
			Window: 5, FailureThreshold: 0.6, Cooldown: 15, HalfOpenProbes: 2,
		},
		GrayLoad: 0.7, GrayFactor: 8, GraySlowFactor: 3,
	}
}

// OutageEnd returns when the last flap heals for good.
func (c *MetastableConfig) OutageEnd() core.Time {
	return c.OutageStart + core.Time(float64(c.Flaps))*c.FlapPeriod
}

// MetastableStormRow is one policy of the storm cell (medians over reps).
type MetastableStormRow struct {
	Policy        string  // "plain-backoff" or "protected"
	PreP99        float64 // admitted p99 flow, released before the outage
	PostP99       float64 // admitted p99 flow, released after the heal
	GoodputPct    float64
	RetriesIssued float64
	RetriesDrop   float64
	BreakerOpens  float64
}

// MetastableGrayRow is one detector of the gray cell.
type MetastableGrayRow struct {
	Policy        string  // "ewma-ejector" or "breaker"
	DetectLatency float64 // gray onset → first ejection / breaker open
	PostP99       float64 // admitted p99 flow, released after detection
}

// MetastableResult bundles both cells for the pinning test.
type MetastableResult struct {
	Storm []MetastableStormRow
	Gray  []MetastableGrayRow
}

// ejectClock records the first ejection instant of a run.
type ejectClock struct {
	first core.Time
	seen  bool
}

// Observe implements obs.Sink.
func (e *ejectClock) Observe(ev obs.Event) {
	if ev.Kind == obs.Eject && !e.seen {
		e.first, e.seen = ev.At, true
	}
}

// Metastable measures the retry-storm regime the resilience layer targets.
//
// Storm cell: 30% of the cluster flaps — crashing and briefly healing —
// then heals for good. Every crash aborts the flapper's queue; plain
// deterministic backoff re-dispatches those tasks in synchronized doubling
// waves that keep re-feeding the flappers and finally collide with the
// post-heal arrivals, so the admitted p99 of tasks released AFTER the heal
// stays blown up long after the fault is gone — the metastable signature:
// the trigger has healed, the failure state sustains itself. The protected
// run breaks each link: jitter desynchronizes the waves, the retry budget
// drops over-budget retries instead of banking an unbounded storm, and the
// breakers stop feeding the flappers after a window of failures.
//
// Gray cell: one server runs GrayFactor× slow without ever crashing. The
// breaker's slow-completion rule (a completion at ≥ GraySlowFactor× nominal
// counts as a failure) trips after its outcome window fills — a handful of
// completions — while the EWMA ejector must accumulate MinSamples and drag
// its average past K× the cluster median, so the breaker ejects the gray
// server first.
func Metastable(w io.Writer, cfg MetastableConfig) (*MetastableResult, error) {
	if cfg.Reps < 1 {
		cfg.Reps = 1
	}
	if err := cfg.Breaker.Validate(); err != nil {
		return nil, err
	}
	res := &MetastableResult{}

	outM := int(math.Ceil(cfg.OutageFrac * float64(cfg.M)))
	flapPlan := &faults.Plan{M: cfg.M}
	for j := 0; j < outM; j++ {
		for f := 0; f < cfg.Flaps; f++ {
			from := cfg.OutageStart + core.Time(float64(f))*cfg.FlapPeriod
			flapPlan.Down(j, from, from+core.Time(cfg.FlapDuty)*cfg.FlapPeriod)
		}
	}
	pol := sim.RetryPolicy{Backoff: cfg.Backoff, BackoffFactor: 2}
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	protected := &resilience.Config{
		Jitter: resilience.JitterFull, Seed: cfg.Seed,
		RetryBudget: cfg.RetryBudget, BudgetBurst: cfg.BudgetBurst,
		Breaker: &cfg.Breaker,
	}
	if err := protected.Validate(); err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "Metastable failure — a healed outage that plain retries keep alive\n")
	fmt.Fprintf(w, "m=%d k=%d n=%d overlapping(k=%d), EFT routing, %.0f%% load;\n",
		cfg.M, cfg.K, cfg.N, cfg.K, cfg.Load*100)
	fmt.Fprintf(w, "storm: %d servers flap (down %.0f%% of each %g-unit period × %d) on [%g, %g);\n",
		outM, cfg.FlapDuty*100, cfg.FlapPeriod, cfg.Flaps, cfg.OutageStart, cfg.OutageEnd())
	fmt.Fprintf(w, "retries: backoff %g doubling; protected adds full jitter, a %.0f%%/burst-%g\n",
		cfg.Backoff, cfg.RetryBudget*100, cfg.BudgetBurst)
	fmt.Fprintf(w, "retry budget and breakers (window %d, threshold %.0f%%, cooldown %g);\n",
		cfg.Breaker.Window, cfg.Breaker.FailureThreshold*100, cfg.Breaker.Cooldown)
	fmt.Fprintf(w, "medians over %d reps\n\n", cfg.Reps)

	policies := []struct {
		name string
		rcfg *resilience.Config
	}{
		{"plain-backoff", nil},
		{"protected", protected},
	}
	stormOut := table.New("policy", "pre-fault p99", "post-heal p99", "goodput %",
		"retries", "budget drops", "breaker opens")
	for _, p := range policies {
		var pre, post, goodput, issued, drops, opens []float64
		for rep := 0; rep < cfg.Reps; rep++ {
			inst, err := workload.Generate(workload.Config{
				M: cfg.M, N: cfg.N, Rate: workload.RateForLoad(cfg.Load, cfg.M),
				Weights:  shuffledWeights(cfg.M, cfg.SBias, subRng(cfg.Seed, 71, int64(rep))),
				Strategy: replicate.Overlapping{K: cfg.K},
			}, subRng(cfg.Seed, 72, int64(rep)))
			if err != nil {
				return nil, err
			}
			arena := arenas.Get().(*sim.Arena)
			_, em, err := arena.Run(inst, sim.EFTRouter{}, sim.Config{Plan: flapPlan, Retry: pol, Resilience: p.rcfg})
			if err != nil {
				arenas.Put(arena)
				return nil, err
			}
			pre = append(pre, windowP99(inst, em, 0, cfg.OutageStart-20))
			post = append(post, windowP99(inst, em, cfg.OutageEnd(), core.Time(math.Inf(1))))
			goodput = append(goodput, em.Goodput()*100)
			// Re-dispatches count alike with and without the resilience
			// layer, whose RetriesIssued ledger exists only when enabled.
			issued = append(issued, float64(em.TotalRetries()))
			drops = append(drops, float64(em.RetriesDropped))
			opens = append(opens, float64(em.BreakerOpens))
			arenas.Put(arena)
		}
		row := MetastableStormRow{
			Policy: p.name,
			PreP99: stats.Median(pre), PostP99: stats.Median(post),
			GoodputPct:    stats.Median(goodput),
			RetriesIssued: stats.Median(issued),
			RetriesDrop:   stats.Median(drops),
			BreakerOpens:  stats.Median(opens),
		}
		res.Storm = append(res.Storm, row)
		stormOut.AddRow(row.Policy,
			fmt.Sprintf("%.2f", row.PreP99), fmt.Sprintf("%.2f", row.PostP99),
			fmt.Sprintf("%.2f", row.GoodputPct),
			fmt.Sprintf("%.0f", row.RetriesIssued), fmt.Sprintf("%.0f", row.RetriesDrop),
			fmt.Sprintf("%.0f", row.BreakerOpens))
	}
	stormOut.Render(w)

	fmt.Fprintf(w, "\nGray detection — breaker slow-tripwire vs the EWMA outlier ejector\n")
	fmt.Fprintf(w, "server 0 runs %g× slow from the start (never down), %.0f%% load, round-robin;\n",
		cfg.GrayFactor, cfg.GrayLoad*100)
	fmt.Fprintf(w, "breaker counts ≥%g× nominal as failure; ejector: EWMA > 3× cluster median\n",
		cfg.GraySlowFactor)
	fmt.Fprintf(w, "after 10 samples\n\n")

	grayPlan := (&faults.Plan{M: cfg.M}).Slow(0, 0, 1e9, cfg.GrayFactor)
	grayBrk := cfg.Breaker
	grayBrk.SlowFactor = cfg.GraySlowFactor
	grayBrk.Cooldown = 1e9 // eject for the rest of the run, like the ejector below
	detectors := []struct{ name string }{{"ewma-ejector"}, {"breaker"}}
	grayOut := table.New("detector", "detect latency", "post-detect p99")
	for _, d := range detectors {
		var lat, post []float64
		for rep := 0; rep < cfg.Reps; rep++ {
			inst, err := workload.Generate(workload.Config{
				M: cfg.M, N: cfg.N, Rate: workload.RateForLoad(cfg.GrayLoad, cfg.M),
				Weights:  shuffledWeights(cfg.M, cfg.SBias, subRng(cfg.Seed, 73, int64(rep))),
				Strategy: replicate.Overlapping{K: cfg.K},
			}, subRng(cfg.Seed, 74, int64(rep)))
			if err != nil {
				return nil, err
			}
			arena := arenas.Get().(*sim.Arena)
			var detected core.Time
			var em *sim.ElasticMetrics
			if d.name == "breaker" {
				_, em2, err2 := arena.Run(inst, &sim.RoundRobinRouter{}, sim.Config{Plan: grayPlan, Resilience: &resilience.Config{Breaker: &grayBrk}})
				if err2 != nil {
					arenas.Put(arena)
					return nil, err2
				}
				em = em2
				detected = core.Time(math.Inf(1))
				for _, sp := range em.BreakerSpans {
					if sp.Server == 0 && sp.OpenedAt < detected {
						detected = sp.OpenedAt
					}
				}
			} else {
				clock := &ejectClock{}
				ocfg := &overload.Config{Ejector: &overload.Ejector{K: 3, Cooldown: 1e9}}
				_, em2, err2 := arena.Run(inst, &sim.RoundRobinRouter{}, sim.Config{Plan: grayPlan, Overload: ocfg, Probe: obs.Multi(clock)})
				if err2 != nil {
					arenas.Put(arena)
					return nil, err2
				}
				em = em2
				detected = core.Time(math.Inf(1))
				if clock.seen {
					detected = clock.first
				}
			}
			lat = append(lat, float64(detected))
			post = append(post, windowP99(inst, em, detected, core.Time(math.Inf(1))))
			arenas.Put(arena)
		}
		row := MetastableGrayRow{
			Policy:        d.name,
			DetectLatency: stats.Median(lat),
			PostP99:       stats.Median(post),
		}
		res.Gray = append(res.Gray, row)
		grayOut.AddRow(row.Policy,
			fmt.Sprintf("%.2f", row.DetectLatency), fmt.Sprintf("%.2f", row.PostP99))
	}
	grayOut.Render(w)

	fmt.Fprintln(w, "\nReading: the fault heals but plain backoff keeps the failure alive — the")
	fmt.Fprintln(w, "synchronized retry waves banked during the flapping collide with the")
	fmt.Fprintln(w, "post-heal arrivals, so tasks released AFTER the outage ended still see a")
	fmt.Fprintln(w, "blown-up p99. Jitter + a retry budget + breakers cut the storm at all")
	fmt.Fprintln(w, "three links and the post-heal p99 returns to the pre-fault regime. On the")
	fmt.Fprintln(w, "gray cell the breaker trips after one outcome window of slow completions,")
	fmt.Fprintln(w, "well before the ejector's EWMA clears its sample and median thresholds.")
	return res, nil
}

// windowP99 returns the p99 flow of tasks released in [from, to) that
// finally completed (NaN when the window holds no completions).
func windowP99(inst *core.Instance, em *sim.ElasticMetrics, from, to core.Time) float64 {
	var xs []float64
	for i := range inst.Tasks {
		r := inst.Tasks[i].Release
		if r < from || r >= to {
			continue
		}
		if em.Dropped[i] || (em.Rejected != nil && em.Rejected[i]) || (em.Shed != nil && em.Shed[i]) {
			continue
		}
		xs = append(xs, float64(em.Flows[i]))
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.Quantile(xs, 0.99)
}
