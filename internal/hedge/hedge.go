// Package hedge configures the tail-tolerance layer of the simulator:
// speculative duplicate dispatch with first-win cancellation (hedged
// requests, in the "tail at scale" sense). When a dispatched request's age
// crosses a trigger — a fixed delay, or a live flow-time quantile streamed
// from the run's own completions — the engine re-dispatches a copy of the
// request to the best *other* eligible server of its processing set; the
// first completion wins and the losing attempt is cancelled (always before
// it starts service, optionally mid-service).
//
// The theory lens is Bansal–Kulkarni's unrelated-machines setting
// (PAPERS.md): when effective per-machine speeds diverge (gray failures,
// stragglers), committing a request to one machine choice is the whole
// problem, and speculation across the structured processing set — which
// the paper's ring intervals provide for free — is the online answer.
// Mäcker et al.'s setup-times model motivates charging every hedge its
// real duplicate-work cost: copies occupy servers, and the engine accounts
// the burned and reclaimed busy time separately (ElasticMetrics'
// DuplicateWork / CancelledWork).
//
// This package deliberately holds only the configuration; the mechanism
// lives in the unified engine (sim.Config.Hedge), the invariants in
// internal/audit, and the randomized trials in internal/chaos.
package hedge

import (
	"fmt"
	"math"

	"flowsched/internal/core"
)

// DefaultMinSamples is the quantile trigger's warm-up: below this many
// completed requests the streamed histogram is too coarse to trust, and the
// trigger falls back to Delay (or stays off).
const DefaultMinSamples = 20

// Config describes the hedging policy of one run. A nil *Config disables
// the layer entirely: a nil sim.Config.Hedge leaves the run byte-identical.
//
// Exactly one trigger style applies per request:
//
//   - Tied requests (Tied = true): the copy is enqueued immediately at
//     first dispatch, and the loser is revoked when the winner enters
//     service — "tied requests" in the tail-at-scale sense. Delay and
//     Quantile are ignored.
//   - Quantile trigger (Quantile ∈ (0,1)): the copy is issued when the
//     request's age crosses the live flow-time quantile of the run's own
//     completions so far (an obs.Histogram streamed by the engine). Until
//     MinSamples completions have been observed the trigger falls back to
//     Delay, or stays off when Delay is 0.
//   - Fixed delay (Delay > 0): the copy is issued when the request has
//     been in queue + in service for Delay.
type Config struct {
	// Delay is the fixed-age trigger: hedge a request once it has waited
	// Delay since its first dispatch. Also the warm-up fallback of the
	// quantile trigger.
	Delay core.Time `json:"delay,omitempty"`
	// Quantile, when in (0,1), triggers off the live flow-time quantile of
	// the run's completions (e.g. 0.95 hedges requests older than the
	// current p95 flow).
	Quantile float64 `json:"quantile,omitempty"`
	// MinSamples is the completion count below which the quantile trigger
	// is not trusted (default DefaultMinSamples).
	MinSamples int `json:"minSamples,omitempty"`
	// MaxHedges caps the total number of hedges issued per run (0 =
	// unlimited) — a duplicate-work budget.
	MaxHedges int `json:"maxHedges,omitempty"`
	// Tied enqueues the copy up front and revokes the loser at service
	// start instead of waiting for a trigger.
	Tied bool `json:"tied,omitempty"`
	// CancelRunning also cancels a losing attempt that has already entered
	// service, reclaiming its remaining busy time (cancel-mid-service).
	// Off, a started loser runs to completion as pure duplicate work.
	CancelRunning bool `json:"cancelRunning,omitempty"`
}

// minSamples resolves the quantile warm-up threshold.
func (c *Config) MinSamplesOrDefault() int {
	if c.MinSamples > 0 {
		return c.MinSamples
	}
	return DefaultMinSamples
}

// Validate checks the configuration. A nil config is valid (the layer is
// off). A non-nil config must carry at least one trigger: Tied, a positive
// Delay, or a Quantile in (0,1).
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	if c.Delay < 0 || math.IsNaN(float64(c.Delay)) || math.IsInf(float64(c.Delay), 0) {
		return fmt.Errorf("hedge: delay %v must be finite and non-negative", c.Delay)
	}
	if c.Quantile != 0 && !(c.Quantile > 0 && c.Quantile < 1) {
		return fmt.Errorf("hedge: quantile %v outside (0, 1)", c.Quantile)
	}
	if c.MinSamples < 0 {
		return fmt.Errorf("hedge: min samples %d must be non-negative", c.MinSamples)
	}
	if c.MaxHedges < 0 {
		return fmt.Errorf("hedge: max hedges %d must be non-negative", c.MaxHedges)
	}
	if !c.Tied && c.Delay == 0 && c.Quantile == 0 {
		return fmt.Errorf("hedge: config needs a trigger: set Delay, Quantile, or Tied")
	}
	return nil
}
