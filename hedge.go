package flowsched

// Facade over the hedged-execution subsystem (internal/hedge +
// SimConfig.Hedge): speculative duplicate dispatch with first-win
// cancellation for tail tolerance.

import (
	"flowsched/internal/hedge"
)

type (
	// HedgeConfig describes the hedging of one run: when a dispatched task's
	// in-queue + in-service age crosses the trigger — a fixed Delay, a live
	// flow-time Quantile (warmed after MinSamples completions), or Tied mode
	// (two copies enqueued up front, loser revoked at service start) — a
	// speculative copy races the primary on the best other eligible server;
	// first completion wins and the loser is cancelled (mid-service only
	// with CancelRunning). MaxHedges caps the copies issued per run. A nil
	// SimConfig.Hedge leaves the run byte-identical.
	HedgeConfig = hedge.Config
)
