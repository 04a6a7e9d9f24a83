package obs

import (
	"fmt"
	"io"

	"flowsched/internal/core"
)

// Counters is a Sink that tallies the run's event totals — the counter set
// a production scheduler would export. WriteProm renders them in the
// Prometheus text exposition format.
type Counters struct {
	Arrivals    int64 // requests released
	Dispatches  int64 // dispatch attempts (> Arrivals under failover)
	Completions int64 // final completions
	Retries     int64 // re-dispatches scheduled after a crash
	Drops       int64 // requests given up (attempt cap or timeout)
	Failovers   int64 // server crashes observed
	Lost        int64 // queued-or-running requests lost to crashes

	// Overload-control totals (a sim.Config.Overload; zero otherwise).
	Rejections   int64 // tasks turned away by admission control
	Sheds        int64 // tasks shed mid-run (watermark trims, deadline enforcement)
	Ejections    int64 // servers ejected by the outlier detector
	Readmissions int64 // ejected servers re-admitted after cooldown
	Brownouts    int64 // rising edges of the SLO guard's brownout signal

	// Elastic-membership totals (a sim.Config.Elastic; zero otherwise).
	ScaleUps   int64     // scale-up decisions committed
	Joins      int64     // machines that finished warm-up and went active
	ScaleDowns int64     // machines drained out of the ring
	Handoffs   int64     // queued tasks handed off from draining machines
	WarmUpTime core.Time // total warm-up delay imposed on joiners

	// Hedged-execution totals (a sim.Config.Hedge; zero otherwise).
	Hedges        int64 // speculative copies dispatched
	HedgeWins     int64 // hedged tasks completed (either attempt)
	HedgeCopyWins int64 // hedged tasks whose speculative copy won
	HedgeCancels  int64 // losing attempts abandoned (cancelled, revoked, crashed)

	// Resilience totals (a sim.Config.Resilience; zero otherwise).
	BreakerOpens     int64 // breaker open episodes (window trips and probe failures)
	BreakerCloses    int64 // probe-success closes
	BreakerProbes    int64 // half-open probe dispatches
	RetryBudgetDrops int64 // retries refused by the retry budget
}

// Observe implements Sink: it counts the event under its kind.
func (c *Counters) Observe(e Event) {
	switch e.Kind {
	case Arrival:
		c.Arrivals++
	case Dispatch:
		c.Dispatches++
	case Complete:
		c.Completions++
	case Drop:
		c.Drops++
	case Retry:
		c.Retries++
	case Failover:
		c.Failovers++
		c.Lost += int64(e.Aux)
	case Reject:
		c.Rejections++
	case Shed:
		c.Sheds++
	case Eject:
		c.Ejections++
	case Readmit:
		c.Readmissions++
	case Brownout:
		if e.Flag {
			c.Brownouts++
		}
	case ScaleUp:
		c.ScaleUps++
		c.WarmUpTime += e.T1 - e.At
	case Join:
		c.Joins++
	case ScaleDown:
		c.ScaleDowns++
	case Handoff:
		c.Handoffs++
	case Hedge:
		c.Hedges++
	case HedgeWin:
		c.HedgeWins++
		if e.Flag {
			c.HedgeCopyWins++
		}
	case HedgeCancel:
		c.HedgeCancels++
	case BreakerOpen:
		c.BreakerOpens++
	case BreakerProbe:
		c.BreakerProbes++
	case BreakerClose:
		c.BreakerCloses++
	case RetryBudgetDrop:
		c.RetryBudgetDrops++
	}
}

// WriteProm writes the counters in the Prometheus text exposition format
// under the flowsched_ namespace.
func (c *Counters) WriteProm(w io.Writer) error {
	for _, row := range []struct {
		name, help string
		value      int64
	}{
		{"flowsched_arrivals_total", "Requests released.", c.Arrivals},
		{"flowsched_dispatches_total", "Dispatch attempts (failover re-dispatches included).", c.Dispatches},
		{"flowsched_completions_total", "Requests completed.", c.Completions},
		{"flowsched_retries_total", "Failover re-dispatches scheduled after a crash.", c.Retries},
		{"flowsched_drops_total", "Requests dropped by the retry policy.", c.Drops},
		{"flowsched_failovers_total", "Server crashes observed.", c.Failovers},
		{"flowsched_lost_tasks_total", "Queued-or-running requests lost to crashes.", c.Lost},
		{"flowsched_rejections_total", "Tasks rejected by admission control.", c.Rejections},
		{"flowsched_sheds_total", "Tasks shed mid-run by overload control.", c.Sheds},
		{"flowsched_ejections_total", "Servers ejected by outlier detection.", c.Ejections},
		{"flowsched_readmissions_total", "Ejected servers re-admitted after cooldown.", c.Readmissions},
		{"flowsched_brownouts_total", "Brownout signal rising edges.", c.Brownouts},
		{"flowsched_scale_ups_total", "Elastic scale-up decisions committed.", c.ScaleUps},
		{"flowsched_joins_total", "Machines that finished warm-up and went active.", c.Joins},
		{"flowsched_scale_downs_total", "Machines drained out of the ring.", c.ScaleDowns},
		{"flowsched_handoffs_total", "Queued tasks handed off from draining machines.", c.Handoffs},
		{"flowsched_hedges_total", "Speculative hedge copies dispatched.", c.Hedges},
		{"flowsched_hedge_wins_total", "Hedged tasks completed.", c.HedgeWins},
		{"flowsched_hedge_copy_wins_total", "Hedged tasks won by the speculative copy.", c.HedgeCopyWins},
		{"flowsched_hedge_cancels_total", "Losing hedge attempts abandoned.", c.HedgeCancels},
		{"flowsched_breaker_opens_total", "Circuit breaker open episodes.", c.BreakerOpens},
		{"flowsched_breaker_closes_total", "Circuit breakers closed by probe success.", c.BreakerCloses},
		{"flowsched_breaker_probes_total", "Half-open breaker probe dispatches.", c.BreakerProbes},
		{"flowsched_retry_budget_drops_total", "Retries refused by the retry budget.", c.RetryBudgetDrops},
	} {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			row.name, row.help, row.name, row.name, row.value); err != nil {
			return err
		}
	}
	// Seconds-valued counter: the float renders with %g, and the family
	// carries the _total suffix like every other counter here (promlint
	// contract pinned by TestCountersPromExposition).
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %g\n",
		"flowsched_warm_up_time_total", "Total warm-up delay imposed on joining machines.",
		"flowsched_warm_up_time_total", "flowsched_warm_up_time_total", float64(c.WarmUpTime))
	return err
}
