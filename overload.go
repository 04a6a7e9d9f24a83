package flowsched

// Facade over the overload-control subsystem (internal/overload +
// SimConfig.Overload): admission control, load shedding, per-server outlier
// ejection and the SLO guard / capacity estimator built on LP (15).

import (
	"flowsched/internal/overload"
	"flowsched/internal/replicate"
	"flowsched/internal/sim"
)

type (
	// OverloadConfig bundles the overload controls of one guarded run; any
	// field may be nil, and a nil SimConfig.Overload leaves the run
	// byte-identical.
	OverloadConfig = overload.Config
	// AdmissionPolicy decides, once per arriving task, whether it enters the
	// system (see AdmitAll, QueueBoundAdmission, DeadlineAdmission).
	AdmissionPolicy = overload.AdmissionPolicy
	// ClusterView is the read-only cluster snapshot handed to admission
	// policies.
	ClusterView = overload.View
	// Shedder trims standing queues when the oldest queued task of a machine
	// outgrows the watermark.
	Shedder = overload.Shedder
	// ShedPolicy selects the shedding victim order (ShedNewest, ShedOldest,
	// ShedRandom, ShedLargestStretch).
	ShedPolicy = overload.ShedPolicy
	// OutlierEjector is Envoy-style passive outlier detection: an EWMA of
	// per-server service-time inflation ejects gray-slowed servers from
	// processing sets, with cooldown re-admission.
	OutlierEjector = overload.Ejector
	// CapacityEstimator is the SLO guard: an offered-load EWMA compared
	// against the LP (15) capacity λ*, exposing a brownout signal.
	CapacityEstimator = overload.Estimator
	// OverloadMetrics extends FaultMetrics with goodput, reject/shed
	// dispositions by reason, ejector activity and the conditional
	// Fmax/stretch of admitted tasks.
	OverloadMetrics = sim.OverloadMetrics
)

// Shedding victim orders.
const (
	ShedNewest         = overload.DropNewest
	ShedOldest         = overload.DropOldest
	ShedRandom         = overload.DropRandom
	ShedLargestStretch = overload.DropLargestStretch
)

// AdmitAll returns the baseline admission policy that accepts everything —
// past λ*, flow times grow without bound.
func AdmitAll() AdmissionPolicy { return overload.AdmitAll{} }

// QueueBoundAdmission rejects a task when every usable machine of its
// processing set exceeds the configured bounds: queue length above maxQueue
// (0 disables) or backlog above maxBacklog (0 disables).
func QueueBoundAdmission(maxQueue int, maxBacklog Time) AdmissionPolicy {
	return overload.QueueBound{MaxQueue: maxQueue, MaxBacklog: maxBacklog}
}

// DeadlineAdmission rejects a task when its predicted flow time (earliest
// finish over its processing set) exceeds d. The engine enforces the
// budget at every dispatch, so completed tasks provably satisfy
// Fmax ≤ d + p_max — the auditor's "deadline" invariant.
func DeadlineAdmission(d Time) AdmissionPolicy { return overload.DeadlineAdmit{D: d} }

// ParseShedPolicy parses a shed policy name
// (newest | oldest | random | stretch).
func ParseShedPolicy(name string) (ShedPolicy, error) { return overload.ShedPolicyByName(name) }

// NewCapacityEstimator builds the SLO guard for a popularity weight vector
// and replication strategy: capacity comes from the max-load LP (15), and
// the guard fits only runs on len(weights) machines.
func NewCapacityEstimator(weights []float64, strategy ReplicationStrategy) (*CapacityEstimator, error) {
	return overload.NewEstimator(weights, strategy)
}

// NewCapacityEstimatorAt builds an SLO guard with a known capacity λ*, for a
// cluster of any size.
func NewCapacityEstimatorAt(capacity float64) *CapacityEstimator {
	return overload.NewEstimatorCapacity(capacity)
}

// ValidateReplication checks a replication strategy against a cluster of m
// machines (e.g. replication factor k within [1, m]), returning a clear
// error instead of the late panic inside Strategy.Set.
func ValidateReplication(s ReplicationStrategy, m int) error {
	return replicate.Validate(s, m)
}
