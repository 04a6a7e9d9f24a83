package sim

import (
	"fmt"
	"math"

	"flowsched/internal/core"
	"flowsched/internal/faults"
)

// RetryPolicy governs what happens to a request whose server fails while
// the request is queued or running there. The zero value retries forever,
// immediately, with no timeout — every request eventually completes as
// long as plans are finite.
type RetryPolicy struct {
	// MaxAttempts caps the total number of dispatch attempts per request;
	// a request aborted on its MaxAttempts-th attempt is dropped. 0 means
	// unlimited.
	MaxAttempts int
	// Backoff delays the re-dispatch of an aborted request: attempt a+1 is
	// scheduled Backoff·BackoffFactor^(a-1) after the abort. 0 fails over
	// immediately.
	Backoff core.Time
	// BackoffFactor is the multiplier applied per additional attempt
	// (exponential backoff). 0 and 1 mean constant backoff; values in
	// (0, 1) are rejected by Validate (they would shrink the delay per
	// attempt — retries accelerating into a down server).
	BackoffFactor float64
	// Timeout drops a request when its age (time since release) would
	// exceed this at the next re-dispatch instant. 0 means no timeout.
	Timeout core.Time
}

// maxBackoff caps the exponential backoff: beyond ~2^60 time units the
// delay is effectively "never", and letting the multiplication run free
// would overflow core.Time to +Inf for large attempt counts, producing a
// NaN-infested event queue instead of a late retry.
const maxBackoff = core.Time(1 << 60)

// Validate rejects retry policies the engine would execute surprisingly.
// The headline case is a BackoffFactor in (0, 1): delay used to shrink it
// silently per attempt — retries accelerating as a server stays down, the
// opposite of backoff — so the engine now refuses it up front (flowsim
// surfaces this as a usage error, exit 2). Zero values keep their
// documented meanings (unlimited attempts, no backoff, constant factor, no
// timeout); negative and non-finite fields are rejected.
func (p RetryPolicy) Validate() error {
	if p.MaxAttempts < 0 {
		return fmt.Errorf("sim: retry policy: MaxAttempts %d must be non-negative (0 = unlimited)", p.MaxAttempts)
	}
	if math.IsNaN(float64(p.Backoff)) || math.IsInf(float64(p.Backoff), 0) || p.Backoff < 0 {
		return fmt.Errorf("sim: retry policy: Backoff %v must be finite and non-negative", p.Backoff)
	}
	if math.IsNaN(p.BackoffFactor) || math.IsInf(p.BackoffFactor, 0) || p.BackoffFactor < 0 {
		return fmt.Errorf("sim: retry policy: BackoffFactor %v must be finite and non-negative", p.BackoffFactor)
	}
	if p.BackoffFactor > 0 && p.BackoffFactor < 1 {
		return fmt.Errorf("sim: retry policy: BackoffFactor %v in (0, 1) would shrink the delay per attempt — retries accelerating into a down server; use 1 (or 0) for constant backoff", p.BackoffFactor)
	}
	if math.IsNaN(float64(p.Timeout)) || math.IsInf(float64(p.Timeout), 0) || p.Timeout < 0 {
		return fmt.Errorf("sim: retry policy: Timeout %v must be finite and non-negative", p.Timeout)
	}
	return nil
}

// delay returns the backoff before attempt attempts+1, given attempts
// completed so far (≥ 1). The result is clamped to maxBackoff.
func (p RetryPolicy) delay(attempts int) core.Time {
	if p.Backoff <= 0 {
		return 0
	}
	f := p.BackoffFactor
	if f <= 0 {
		f = 1
	}
	d := p.Backoff
	for a := 1; a < attempts; a++ {
		d *= f
		if d >= maxBackoff {
			return maxBackoff
		}
	}
	if d >= maxBackoff {
		return maxBackoff
	}
	return d
}

// FaultMetrics extends Metrics with the robustness observables of a faulty
// run. The flow of a dropped request, and so its stretch, measures the time
// from release until the drop decision (the latency of the failure
// response), not a completion.
type FaultMetrics struct {
	Metrics
	Attempts []int       // per-request dispatch attempts (≥ 1 unless parked forever)
	Dropped  []bool      // per-request: gave up (attempt cap or timeout)
	Parked   []bool      // per-request: waited at least once with its whole set down
	Downtime []core.Time // per-server down time within [0, Horizon)
	Horizon  core.Time   // observation horizon (makespan, or plan end when longer)

	plan *faults.Plan // the run's plan, normalized
}

// DroppedCount returns the number of requests that were dropped.
func (m *FaultMetrics) DroppedCount() int { return countTrue(m.Dropped) }

// ParkedCount returns the number of requests that were parked at least
// once (their entire processing set was down on arrival or failover).
func (m *FaultMetrics) ParkedCount() int { return countTrue(m.Parked) }

// DropRate returns the fraction of requests dropped.
func (m *FaultMetrics) DropRate() float64 {
	if len(m.Dropped) == 0 {
		return 0
	}
	return float64(m.DroppedCount()) / float64(len(m.Dropped))
}

// TotalRetries returns Σ_i max(Attempts_i − 1, 0): the number of extra
// dispatches caused by failures.
func (m *FaultMetrics) TotalRetries() int {
	total := 0
	for _, a := range m.Attempts {
		if a > 1 {
			total += a - 1
		}
	}
	return total
}

// Availability returns the fraction of server·time the cluster was up over
// the run's horizon.
func (m *FaultMetrics) Availability() float64 { return m.plan.Availability(m.Horizon) }

// RecoverySpikeMaxFlow returns the maximum flow among requests released
// while a server was down or within window after a recovery — the
// transient the paper's steady-state Fmax protocol cannot see. It returns
// 0 when no request falls in a spike window. Dropped requests are
// excluded (their pseudo-flow is reported through DropRate instead).
func (m *FaultMetrics) RecoverySpikeMaxFlow(window core.Time) core.Time {
	var mx core.Time
	outages := m.plan.Outages
	inSpike := func(r core.Time) bool {
		for _, o := range outages {
			if r >= o.From && r < o.Until+window {
				return true
			}
		}
		return false
	}
	for i, t := range m.tasks {
		if m.Dropped[i] || !inSpike(t.Release) {
			continue
		}
		if m.Flows[i] > mx {
			mx = m.Flows[i]
		}
	}
	return mx
}

// RecoverySpike returns RecoverySpikeMaxFlow with the plan's empirical
// mean repair time as the window.
func (m *FaultMetrics) RecoverySpike() core.Time {
	return m.RecoverySpikeMaxFlow(m.plan.MeanRepairTime())
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// faultEvent is a non-arrival event of the faulty simulation.
type faultEvent struct {
	kind   int // evDown | evUp | evRetry | evScale | evJoin | evHedge | evTied | evBreaker
	server int // evDown/evUp: the server; evJoin: the joining machine slot; evBreaker: the breaker's server
	task   int // evRetry/evHedge/evTied: the task; evScale: the signed membership delta
}

const (
	evDown = iota
	evUp
	evRetry
	evScale   // scripted elastic scale event (task = signed delta)
	evJoin    // a warming machine finishes setup and goes active (server = slot)
	evHedge   // the hedge trigger fires for a task (task = id)
	evTied    // a tied pair reaches service start: revoke the loser (task = id)
	evBreaker // a breaker's state may have changed: tick the cooldown, wake parked work (server = slot)
)
