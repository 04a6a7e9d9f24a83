package flowsched

// Facade over the elastic-membership subsystem (internal/elastic +
// SimConfig.Elastic): online scale-up with warm-up, scale-down with drain and
// handoff, scripted and/or autoscaled membership, and the replayable
// membership log the auditor re-checks.

import (
	"flowsched/internal/elastic"
	"flowsched/internal/sim"
)

type (
	// ElasticConfig describes the online membership of one run: the
	// instance's M is the slot capacity, membership moves within [Min, Max]
	// from Initial, joiners warm up for WarmUp, and changes come from a
	// Script, an AutoscalePolicy, or both. A nil SimConfig.Elastic leaves
	// the run byte-identical.
	ElasticConfig = elastic.Config
	// ScaleEvent is one scripted membership change: add Delta machines
	// (Delta > 0, each with warm-up) or drain −Delta (Delta < 0) at
	// instant At.
	ScaleEvent = elastic.Event
	// AutoscalePolicy drives membership from a CapacityEstimator with
	// hysteresis (UpUtil/DownUtil), sustain and cooldown.
	AutoscalePolicy = elastic.Autoscaler
	// MembershipLog is the replayable membership history of an elastic run:
	// capacity, initial active prefix and every join/drain with timestamps.
	// Audit re-derives dispatch-time eligibility from it with the same
	// effective-set walk the engine used.
	MembershipLog = elastic.Membership
	// MembershipChange is one entry of the MembershipLog.
	MembershipChange = elastic.Change
	// ElasticMetrics extends OverloadMetrics with the membership log, the
	// per-task dispatch instants, scale/handoff counts and the
	// machine-hours integral ∫ members dt.
	ElasticMetrics = sim.ElasticMetrics
)

// EffectiveSet returns the first k active machines walking the slot ring
// clockwise from start — the one routing rule shared by the elastic engine
// and the auditor. active[j] reports whether slot j is a member; start = −1
// means unrestricted (take the k lowest active slots). The result is sorted
// ascending.
func EffectiveSet(active []bool, start, k int) ProcSet {
	return elastic.Effective(active, start, k, nil)
}

// SimConfig selects the layers of one RunArena.Run: a fault plan and retry
// policy, overload control, elastic membership, hedging, resilience and a
// probe. A nil field leaves its layer off, and a nil SimConfig.X leaves the
// run byte-identical to one without layer X. A zero SimConfig gives
// Simulate's schedule and flows, with the full ElasticMetrics, but more
// slowly: Simulate keeps the paper's fault-free loops.
type SimConfig = sim.Config

// RunArena is the layered simulation engine: RunArena.Run simulates an
// instance under a router with the layers a SimConfig arms, and a one-off
// run is NewRunArena().Run(inst, router, SimConfig{...}). The arena owns
// every per-run buffer and reuses them across runs: the first run sizes
// them, every later run of the same shape allocates almost nothing.
//
// The returned Schedule and metrics point into the arena and are valid only
// until its next run — copy anything that must outlive it, or give each run
// its own arena. An arena is not safe for concurrent use; give each
// goroutine its own (a sync.Pool of NewRunArena works well for worker
// fan-outs).
type RunArena = sim.Arena

// NewRunArena returns an empty arena ready for its first run. Keep it across
// repeated runs — trial loops, benchmark repetitions, chaos soaks — to
// amortize the engine's per-run allocations down to a handful.
func NewRunArena() *RunArena {
	return sim.NewArena()
}
