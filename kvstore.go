package flowsched

import (
	"io"
	"math/rand"

	"flowsched/internal/faults"
	"flowsched/internal/popularity"
	"flowsched/internal/replicate"
	"flowsched/internal/sim"
	"flowsched/internal/workload"
)

// Key-value store toolkit: replication strategies, popularity model,
// workload generation and the discrete-event cluster simulator.

// ReplicationStrategy maps a key's primary machine to the processing set of
// its requests (Section 7.2).
type ReplicationStrategy = replicate.Strategy

// NoReplication keeps every key on its primary only (|M_i| = 1).
func NoReplication() ReplicationStrategy { return replicate.None{} }

// OverlappingReplication replicates each key on the k−1 ring successors of
// its primary (the Dynamo/Cassandra scheme).
func OverlappingReplication(k int) ReplicationStrategy { return replicate.Overlapping{K: k} }

// DisjointReplication partitions the cluster into fixed blocks of k
// machines (the structure for which EFT is (3 − 2/k)-competitive,
// Corollary 1).
func DisjointReplication(k int) ReplicationStrategy { return replicate.Disjoint{K: k} }

// OffsetDisjointReplication is DisjointReplication with block boundaries
// rotated by offset (ablation extension).
func OffsetDisjointReplication(k, offset int) ReplicationStrategy {
	return replicate.OffsetDisjoint{K: k, Offset: offset}
}

// RandomReplication replicates each primary on k−1 uniformly drawn
// machines (an unstructured baseline; memoized per primary).
func RandomReplication(k int, rng *rand.Rand) ReplicationStrategy {
	return replicate.NewRandomK(k, rng)
}

// PopularityCase names the Section 7.1 scenarios.
type PopularityCase = popularity.Case

// Popularity scenarios (Figure 8).
const (
	PopularityUniform  = popularity.Uniform
	PopularityWorst    = popularity.Worst
	PopularityShuffled = popularity.Shuffled
)

// ZipfWeights returns the machine popularity P(E_j) = 1/(j^s·H_{m,s}).
func ZipfWeights(m int, s float64) []float64 { return popularity.Zipf(m, s) }

// PopularityWeights builds the weight vector of one of the paper's cases
// (rng is required for the Shuffled case).
func PopularityWeights(c PopularityCase, m int, s float64, rng *rand.Rand) []float64 {
	return popularity.Weights(c, m, s, rng)
}

// WorkloadConfig describes a generated request stream (Poisson arrivals,
// popularity-weighted primaries, strategy-derived processing sets).
type WorkloadConfig = workload.Config

// GenerateWorkload draws an instance from the configuration.
func GenerateWorkload(cfg WorkloadConfig, rng *rand.Rand) (*Instance, error) {
	return workload.Generate(cfg, rng)
}

// MixedWorkloadConfig describes a read/write workload: reads run on any
// replica (the paper's model), writes fan out to every replica.
type MixedWorkloadConfig = workload.MixedConfig

// GenerateMixedWorkload draws a read/write workload (writes expand into one
// pinned task per replica).
func GenerateMixedWorkload(cfg MixedWorkloadConfig, rng *rand.Rand) (*Instance, error) {
	return workload.GenerateMixed(cfg, rng)
}

// EffectiveLoad returns the average machine load a mixed workload induces,
// accounting for write fan-out.
func EffectiveLoad(cfg MixedWorkloadConfig) float64 { return workload.EffectiveLoad(cfg) }

// DriftWorkloadConfig describes a workload whose popularity permutation
// re-shuffles every epoch (moving hot spots over a fixed replication
// layout).
type DriftWorkloadConfig = workload.DriftConfig

// GenerateDriftWorkload draws a popularity-drifting workload.
func GenerateDriftWorkload(cfg DriftWorkloadConfig, rng *rand.Rand) (*Instance, error) {
	return workload.GenerateDrift(cfg, rng)
}

// WorkloadFromTrace builds an instance from a request trace
// ("<time> <key> [<proc>]" lines); see internal/workload.FromTrace for the
// format.
func WorkloadFromTrace(r io.Reader, m int, strategy ReplicationStrategy) (*Instance, error) {
	return workload.FromTrace(r, m, strategy)
}

// WorkloadToTrace writes an instance in the WorkloadFromTrace format.
func WorkloadToTrace(w io.Writer, inst *Instance) error {
	return workload.WriteTrace(w, inst)
}

// RateForLoad converts an average cluster load fraction into the Poisson
// rate λ, and AverageLoad converts back.
func RateForLoad(load float64, m int) float64 { return workload.RateForLoad(load, m) }

// AverageLoad returns λ/m as a fraction.
func AverageLoad(rate float64, m int) float64 { return workload.AverageLoad(rate, m) }

// Simulation (internal/sim).
type (
	// Router decides, at arrival, which eligible server runs a request.
	Router = sim.Router
	// ClusterState is the router-visible state at an arrival instant.
	ClusterState = sim.State
	// SimMetrics aggregates a simulation run (flows, utilization).
	SimMetrics = sim.Metrics
)

// EFTRouter returns the clairvoyant earliest-finish-time router (nil tie =
// Min); it reproduces sched.EFT inside the simulator.
func EFTRouter(tie TieBreak) Router { return sim.EFTRouter{Tie: tie} }

// JSQRouter returns the non-clairvoyant join-shortest-queue router.
func JSQRouter() Router { return sim.JSQRouter{} }

// RandomRouter returns the uniform random router baseline.
func RandomRouter(rng *rand.Rand) Router { return &sim.RandomRouter{Rng: rng} }

// PowerOfTwoRouter returns the power-of-two-choices router: sample two
// eligible servers, pick the shorter queue.
func PowerOfTwoRouter(rng *rand.Rand) Router { return sim.PowerOfTwoRouter{Rng: rng} }

// RoundRobinRouter returns the load-oblivious round-robin baseline. Its
// cursor is reset automatically at the start of every run.
func RoundRobinRouter() Router { return &sim.RoundRobinRouter{} }

// NoisyEFTRouter returns EFT with imperfect clairvoyance: processing times
// are known only up to a multiplicative error uniform in [1−relErr,
// 1+relErr]. Its believed state is reset automatically at the start of
// every run.
func NoisyEFTRouter(tie TieBreak, relErr float64, rng *rand.Rand) Router {
	return &sim.NoisyEFTRouter{Tie: tie, RelErr: relErr, Rng: rng}
}

// KeyStats summarizes one key's response times in a run.
type KeyStats = sim.KeyStats

// FlowsByKey groups a run's response times by key, hottest keys first.
func FlowsByKey(inst *Instance, m *SimMetrics) []KeyStats { return sim.FlowsByKey(inst, m) }

// HotKeyPenalty compares the mean response time of the hottest keys (top
// fraction of request volume) against the rest.
func HotKeyPenalty(inst *Instance, m *SimMetrics, topFraction float64) (Time, Time) {
	return sim.HotKeyPenalty(inst, m, topFraction)
}

// Simulate runs the discrete-event cluster simulation of an instance under
// a router and returns the resulting schedule and metrics.
func Simulate(inst *Instance, router Router) (*Schedule, *SimMetrics, error) {
	return sim.Run(inst, router)
}

// Fault injection (internal/faults + SimConfig.Plan and SimConfig.Retry).
type (
	// FaultPlan scripts server outages for a faulty simulation; it
	// validates, normalizes and round-trips through JSON like instances.
	FaultPlan = faults.Plan
	// Outage marks one server down on [From, Until).
	Outage = faults.Outage
	// RetryPolicy governs failover of requests lost to a server crash:
	// attempt cap, (exponential) backoff and per-request timeout. The zero
	// value retries immediately and forever.
	RetryPolicy = sim.RetryPolicy
	// FaultMetrics extends SimMetrics with robustness observables:
	// attempts, drops, parked requests, per-server downtime, availability
	// and recovery-spike max flow.
	FaultMetrics = sim.FaultMetrics
)

// EmptyFaultPlan returns the healthy plan for m servers; simulating under
// it reproduces Simulate exactly.
func EmptyFaultPlan(m int) *FaultPlan { return faults.Empty(m) }

// GenerateFaultPlan draws outages from a per-server MTBF/MTTR renewal
// process (exponential up and down periods) over [0, horizon).
func GenerateFaultPlan(m int, horizon Time, mtbf, mttr float64, rng *rand.Rand) *FaultPlan {
	return faults.Generate(m, horizon, mtbf, mttr, rng)
}

// ReadFaultPlanJSON deserializes and validates a fault plan.
func ReadFaultPlanJSON(r io.Reader) (*FaultPlan, error) { return faults.ReadPlanJSON(r) }
