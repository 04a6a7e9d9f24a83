// Package resilience holds the metastable-failure protections of the
// unified engine (sim.Config.Resilience): deterministic seeded jitter on the
// retry backoff, a cluster-wide retry budget, and per-server circuit
// breakers.
//
// The three mechanisms target the retry-storm regime: a mass outage that
// heals leaves synchronized unjittered retries re-saturating the recovered
// servers, so admitted flow time never returns to its bound — the recovery
// spike that setup/warm-up costs make worse (Mäcker et al., PAPERS.md) and
// that per-endpoint capacity limits formalize (Pa–Rajaraman–Stalfa,
// PAPERS.md). Jitter desynchronizes the waves, the budget caps retry
// traffic to a fraction of live admissions, and breakers stop gray or
// flapping servers from absorbing (and losing) work.
//
// Everything here is deterministic and allocation-free in steady state:
// jitter is a hash of (seed, task, attempt), the budget is a float token
// bucket, and Breakers recycles its per-server state through Reset exactly
// like the engine's arena.
package resilience

import (
	"fmt"
	"math"

	"flowsched/internal/core"
)

// JitterMode selects how the exponential backoff delay is randomized.
type JitterMode string

const (
	// JitterNone leaves the deterministic exponential delay untouched.
	JitterNone JitterMode = ""
	// JitterFull draws the delay uniformly from [0, d): maximal
	// desynchronization, at the cost of some immediate retries.
	JitterFull JitterMode = "full"
	// JitterEqual draws from [d/2, d): half the spread of full jitter while
	// keeping a floor of half the nominal delay.
	JitterEqual JitterMode = "equal"
	// JitterDecorrelated ignores the exponential schedule and draws from
	// [base, 3·prev), where prev is the task's previous jittered delay —
	// the AWS "decorrelated jitter" rule, which spreads repeated retries
	// without the synchronized doubling of plain exponential backoff.
	JitterDecorrelated JitterMode = "decorrelated"
)

// maxDelay caps a jittered delay, mirroring the engine's backoff clamp:
// beyond ~2^60 time units a retry is effectively "never", and letting the
// decorrelated recurrence run free would overflow to +Inf.
const maxDelay = core.Time(1 << 60)

// Config enables the resilience layer of the engine. A nil
// sim.Config.Resilience leaves the run byte-identical; each mechanism is
// independently optional.
type Config struct {
	// Jitter randomizes the retry backoff. Replayable: the delay of a
	// retry is a pure hash of (Seed, task, attempt).
	Jitter JitterMode `json:"jitter,omitempty"`
	// Seed seeds the jitter hash. Two runs with equal seeds retry at
	// identical instants.
	Seed int64 `json:"seed,omitempty"`

	// RetryBudget caps retry traffic at this fraction of first-attempt
	// dispatches: every first attempt refills the token bucket by
	// RetryBudget tokens and every retry costs one. 0 disables the budget.
	// An over-budget retry drops its task with the BudgetDropped
	// disposition — never parked forever.
	RetryBudget float64 `json:"retry_budget,omitempty"`
	// BudgetBurst bounds the token bucket (and is its initial fill), so a
	// quiet period cannot bank an unbounded retry burst. 0 means
	// DefaultBudgetBurst.
	BudgetBurst float64 `json:"budget_burst,omitempty"`

	// Breaker attaches per-server circuit breakers to failover routing.
	Breaker *BreakerConfig `json:"breaker,omitempty"`
}

// DefaultBudgetBurst is the token-bucket bound when BudgetBurst is 0.
const DefaultBudgetBurst = 10.0

// BudgetBurstOrDefault returns the effective token-bucket bound.
func (c *Config) BudgetBurstOrDefault() float64 {
	if c.BudgetBurst > 0 {
		return c.BudgetBurst
	}
	return DefaultBudgetBurst
}

// Validate checks the config. A nil config is valid (the disabled layer).
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	switch c.Jitter {
	case JitterNone, JitterFull, JitterEqual, JitterDecorrelated:
	default:
		return fmt.Errorf("resilience: unknown jitter mode %q (want full, equal or decorrelated)", c.Jitter)
	}
	if math.IsNaN(c.RetryBudget) || c.RetryBudget < 0 || c.RetryBudget > 1 {
		return fmt.Errorf("resilience: retry budget %v outside [0, 1]", c.RetryBudget)
	}
	if math.IsNaN(c.BudgetBurst) || math.IsInf(c.BudgetBurst, 0) || c.BudgetBurst < 0 {
		return fmt.Errorf("resilience: budget burst %v must be a finite non-negative token count", c.BudgetBurst)
	}
	return c.Breaker.Validate()
}

// BreakerConfig parameterizes the per-server circuit breakers: closed →
// open when the failure rate over a sliding outcome window crosses the
// threshold → half-open after a cooldown, admitting a capped number of
// probe dispatches → closed again on probe success (or open on probe
// failure).
type BreakerConfig struct {
	// Window is the sliding outcome window: the breaker trips on the
	// failure rate over the last Window dispatch outcomes (it never trips
	// before the window has filled once).
	Window int `json:"window"`
	// FailureThreshold opens the breaker when failures/Window reaches it.
	FailureThreshold float64 `json:"failure_threshold"`
	// Cooldown is how long an open breaker blocks all dispatches before
	// transitioning to half-open.
	Cooldown core.Time `json:"cooldown"`
	// HalfOpenProbes caps concurrently outstanding probe dispatches in the
	// half-open state. 0 means 1.
	HalfOpenProbes int `json:"half_open_probes,omitempty"`
	// SlowFactor counts a completion as a failure outcome when its
	// observed service time reached SlowFactor × the task's nominal
	// processing time — how a breaker sees a gray-slow server that never
	// crashes. 0 counts only crashes as failures.
	SlowFactor float64 `json:"slow_factor,omitempty"`
}

// ProbeCap returns the effective half-open probe cap.
func (c *BreakerConfig) ProbeCap() int {
	if c.HalfOpenProbes > 0 {
		return c.HalfOpenProbes
	}
	return 1
}

// Validate checks the breaker config; nil is valid (no breakers).
func (c *BreakerConfig) Validate() error {
	if c == nil {
		return nil
	}
	if c.Window < 1 {
		return fmt.Errorf("resilience: breaker window %d must be at least 1", c.Window)
	}
	if math.IsNaN(c.FailureThreshold) || c.FailureThreshold <= 0 || c.FailureThreshold > 1 {
		return fmt.Errorf("resilience: breaker failure threshold %v outside (0, 1]", c.FailureThreshold)
	}
	if math.IsNaN(float64(c.Cooldown)) || math.IsInf(float64(c.Cooldown), 0) || c.Cooldown <= 0 {
		return fmt.Errorf("resilience: breaker cooldown %v must be a finite positive duration", c.Cooldown)
	}
	if c.HalfOpenProbes < 0 {
		return fmt.Errorf("resilience: breaker half-open probe cap %d must be non-negative", c.HalfOpenProbes)
	}
	if math.IsNaN(c.SlowFactor) || math.IsInf(c.SlowFactor, 0) || c.SlowFactor < 0 {
		return fmt.Errorf("resilience: breaker slow factor %v must be finite and non-negative", c.SlowFactor)
	}
	if c.SlowFactor > 0 && c.SlowFactor <= 1 {
		return fmt.Errorf("resilience: breaker slow factor %v must exceed 1 (every on-time completion would count as a failure)", c.SlowFactor)
	}
	return nil
}

// Jitter returns the jittered retry delay. d is the deterministic
// exponential delay for this attempt, base the policy's base backoff and
// prev the task's previous jittered delay (0 on the first retry; only
// decorrelated mode reads it). The draw is a pure hash of (seed, task,
// attempt), so a run replays bit-for-bit from its seed.
func Jitter(mode JitterMode, seed int64, task, attempt int, d, base, prev core.Time) core.Time {
	u := rnd01(seed, task, attempt)
	switch mode {
	case JitterFull:
		return core.Time(float64(d) * u)
	case JitterEqual:
		return d/2 + core.Time(float64(d/2)*u)
	case JitterDecorrelated:
		if prev < base {
			prev = base
		}
		next := base + core.Time(float64(3*prev-base)*u)
		if next >= maxDelay || math.IsInf(float64(next), 0) {
			return maxDelay
		}
		return next
	default:
		return d
	}
}

// rnd01 hashes (seed, task, attempt) into [0, 1) with a SplitMix64
// finalizer — deterministic, stateless and allocation-free.
func rnd01(seed int64, task, attempt int) float64 {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15*uint64(task+1) ^ 0xbf58476d1ce4e5b9*uint64(attempt+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// Budget is the cluster-wide retry token bucket: every first-attempt
// dispatch refills it by the configured fraction, every retry costs one
// token, and the balance is bounded by the burst cap. The zero value is an
// empty bucket; Reset arms it.
type Budget struct {
	fraction float64
	burst    float64
	tokens   float64
}

// Reset arms the bucket with the given refill fraction and burst bound,
// starting full (a cold start right into an outage can still retry).
func (b *Budget) Reset(fraction, burst float64) {
	b.fraction = fraction
	b.burst = burst
	b.tokens = burst
}

// Refill credits one first-attempt dispatch.
func (b *Budget) Refill() {
	b.tokens += b.fraction
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// Take spends one token on a retry; it reports false (and spends nothing)
// when the bucket holds less than a full token — the retry is over budget.
func (b *Budget) Take() bool {
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Tokens returns the current balance (for probes and tests).
func (b *Budget) Tokens() float64 { return b.tokens }
