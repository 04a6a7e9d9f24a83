package flowsched

// Facade over the resilience subsystem (internal/resilience +
// SimConfig.Resilience): seeded retry jitter, a cluster-wide retry budget and
// per-server circuit breakers that together keep a healed fault from
// turning into a metastable retry storm.

import (
	"flowsched/internal/resilience"
)

type (
	// ResilienceConfig bundles the three anti-storm mechanisms of one run:
	// Jitter decorrelates retry backoff delays (deterministically, from
	// Seed), RetryBudget caps cluster-wide retry dispatches to a fraction
	// of fresh arrivals (a token bucket with BudgetBurst capacity; refused
	// retries become BudgetDropped tasks instead of parking forever), and
	// Breaker trips a per-server circuit after a window of failures so
	// retries stop hammering a down or gray server until a half-open probe
	// succeeds. A nil SimConfig.Resilience leaves the run byte-identical.
	ResilienceConfig = resilience.Config
	// BreakerConfig tunes the per-server circuit breakers: outcome Window,
	// FailureThreshold fraction that trips, open Cooldown, HalfOpenProbes
	// admitted concurrently, and an optional SlowFactor treating
	// completions slower than SlowFactor× the expected service time as
	// failures (the gray-server tripwire).
	BreakerConfig = resilience.BreakerConfig
	// JitterMode selects the retry backoff jitter strategy.
	JitterMode = resilience.JitterMode
	// BreakerSpan records one breaker open episode (open, half-open,
	// close) in ElasticMetrics.BreakerSpans.
	BreakerSpan = resilience.Span
)

// Jitter modes for ResilienceConfig.Jitter: none keeps the deterministic
// exponential backoff, full draws from [0,d), equal from [d/2,d), and
// decorrelated from [base, 3·prev) — the AWS-style ladder that spreads a
// synchronized retry wave the widest.
const (
	JitterNone         = resilience.JitterNone
	JitterFull         = resilience.JitterFull
	JitterEqual        = resilience.JitterEqual
	JitterDecorrelated = resilience.JitterDecorrelated
)
