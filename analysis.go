package flowsched

import (
	"flowsched/internal/loadlp"
	"flowsched/internal/ratio"
	"flowsched/internal/sched"
)

// Max-load analysis (Section 7.2) and the adversary lower bounds
// (Section 6).

// MaxLoadModel is the LP (15) instance: popularity weights plus the
// replication sets per primary. Its MaxLoad method solves it exactly with a
// parametric minimum cut; see internal/loadlp.
type MaxLoadModel = loadlp.Model

// NewMaxLoadModel builds the model for a weight vector and a replication
// strategy.
func NewMaxLoadModel(weights []float64, strategy ReplicationStrategy) *MaxLoadModel {
	return loadlp.NewModel(weights, strategy)
}

// MaxLoad returns the theoretical maximum sustainable arrival rate λ of
// LP (15) for the given popularity weights and replication strategy,
// computed exactly for any number of machines. A nil processing set from
// the strategy means all machines.
func MaxLoad(weights []float64, strategy ReplicationStrategy) float64 {
	return loadlp.NewModel(weights, strategy).MaxLoad()
}

// MaxLoadPercent converts a λ from MaxLoad into the cluster load
// percentage 100·λ/m of Figure 10.
func MaxLoadPercent(lambda float64, m int) float64 { return 100 * lambda / float64(m) }

// CompetitiveBoundFIFO returns the (3 − 2/m) guarantee of Theorem 1 for
// FIFO/EFT on m unrestricted machines.
func CompetitiveBoundFIFO(m int) float64 { return 3 - 2/float64(m) }

// CompetitiveBoundDisjoint returns the (3 − 2/k) guarantee of Corollary 1
// for EFT on disjoint processing sets of size k.
func CompetitiveBoundDisjoint(k int) float64 { return 3 - 2/float64(k) }

// EFTIntervalLowerBound returns the m − k + 1 lower bound of
// Theorems 8-10 for EFT on overlapping fixed-size intervals.
func EFTIntervalLowerBound(m, k int) float64 { return float64(m - k + 1) }

// Empirical competitiveness harness (internal/ratio).
type (
	// InstanceGenerator draws random instances for ratio measurements.
	InstanceGenerator = ratio.Generator
	// RatioBaseline supplies the reference Fmax (exact optimum or lower
	// bound) a scheduler is measured against.
	RatioBaseline = ratio.Baseline
	// RatioSummary reports a sampled ratio distribution, including the seed
	// of the worst instance for reproduction.
	RatioSummary = ratio.Summary
)

// MeasureCompetitiveness samples `trials` instances from gen and reports
// the distribution of alg's Fmax over the baseline.
func MeasureCompetitiveness(alg Algorithm, gen InstanceGenerator, base RatioBaseline, trials int, seed int64) (RatioSummary, error) {
	return ratio.Measure(alg, gen, base, trials, seed)
}

// ExactBaseline measures against the exact brute-force optimum (small
// instances only).
func ExactBaseline() RatioBaseline { return ratio.BruteForceBaseline() }

// LowerBoundBaseline measures against the certified lower bound, giving an
// upper estimate of the true ratio.
func LowerBoundBaseline() RatioBaseline { return ratio.LowerBoundBaseline() }

// UniformInstances generates unrestricted instances for
// MeasureCompetitiveness.
func UniformInstances(m, n int, horizon, pmax Time) InstanceGenerator {
	return ratio.UniformGenerator(m, n, horizon, pmax)
}

// DisjointInstances generates block-restricted instances (the Corollary 1
// setting) for MeasureCompetitiveness.
func DisjointInstances(k, blocks, n int, horizon, pmax Time) InstanceGenerator {
	return ratio.DisjointGenerator(k, blocks, n, horizon, pmax)
}

// internal guard: the facade must keep exposing schedulers that satisfy the
// Algorithm interface.
var (
	_ Algorithm = (*sched.EFT)(nil)
	_ Algorithm = (*sched.FIFO)(nil)
	_ Algorithm = (*sched.JSQ)(nil)
)
