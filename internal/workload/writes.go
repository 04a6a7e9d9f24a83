package workload

import (
	"fmt"
	"math/rand"

	"flowsched/internal/core"
	"flowsched/internal/popularity"
	"flowsched/internal/replicate"
)

// MixedConfig extends the Section 7 read workload with write fan-out, the
// replication cost the paper's read-only model abstracts away: a read is
// one task eligible on any replica (the paper's M_i), while a write must
// update EVERY replica — it fans out into |I_k(u)| tasks, each pinned to
// one specific machine. Higher replication factors therefore help reads
// and hurt writes, which is the classic KV-store trade-off.
type MixedConfig struct {
	M             int
	N             int     // number of REQUESTS (writes expand into k tasks)
	Rate          float64 // Poisson request rate
	Proc          core.Time
	WriteFraction float64 // probability a request is a write (0..1)
	Weights       []float64
	Strategy      replicate.Strategy
}

// GenerateMixed draws a read/write workload. The returned instance contains
// one task per read and |set| tasks per write (all released at the write's
// arrival, one per replica). Task.Key records the primary machine of the
// requested key for both kinds. The instance is built in one pass: reads of
// one primary share its set, and the writes' tasks on replica j share {j}.
func GenerateMixed(cfg MixedConfig, rng *rand.Rand) (*core.Instance, error) {
	if cfg.M < 1 {
		return nil, fmt.Errorf("workload: need at least one machine")
	}
	if cfg.N < 0 {
		return nil, fmt.Errorf("workload: negative request count")
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("workload: arrival rate must be positive")
	}
	if cfg.WriteFraction < 0 || cfg.WriteFraction > 1 {
		return nil, fmt.Errorf("workload: write fraction %v out of [0,1]", cfg.WriteFraction)
	}
	proc := cfg.Proc
	if proc == 0 {
		proc = 1
	}
	if proc < 0 {
		return nil, fmt.Errorf("workload: negative processing time %v", proc)
	}
	weights := cfg.Weights
	if weights == nil {
		weights = popularity.Zipf(cfg.M, 0)
	}
	if len(weights) != cfg.M {
		return nil, fmt.Errorf("workload: %d weights for %d machines", len(weights), cfg.M)
	}
	strategy := cfg.Strategy
	if strategy == nil {
		strategy = replicate.None{}
	}
	sampler := popularity.NewSampler(weights)
	sets := replicate.NewTable(strategy, cfg.M)
	pins := replicate.NewTable(replicate.None{}, cfg.M) // {j}, a write's task on replica j

	tasks := make([]core.Task, 0, cfg.N)
	t := core.Time(0)
	for i := 0; i < cfg.N; i++ {
		t += rng.ExpFloat64() / cfg.Rate
		primary := sampler.Sample(rng)
		set := sets.Set(primary)
		if rng.Float64() < cfg.WriteFraction {
			// Write: one pinned task per replica.
			for _, j := range set {
				var pin core.ProcSet
				if uint(j) < uint(cfg.M) {
					pin = pins.Set(j)
				} else {
					pin = core.NewProcSet(j) // a strategy's stray member: Validate rejects the instance
				}
				tasks = append(tasks, core.Task{
					Release: t,
					Proc:    proc,
					Set:     pin,
					Key:     primary,
				})
			}
		} else {
			// Read: any replica will do.
			tasks = append(tasks, core.Task{
				Release: t,
				Proc:    proc,
				Set:     set,
				Key:     primary,
			})
		}
	}
	return core.AdoptInstance(cfg.M, tasks), nil
}

// EffectiveLoad returns the average machine load implied by a mixed
// workload: each read costs proc, each write costs |set|·proc, so the
// cluster-wide load fraction is rate·proc·(1 − w + w·k̄)/m with k̄ the
// average replica count (exactly k for the overlapping strategy, ≤ k for
// disjoint tails).
func EffectiveLoad(cfg MixedConfig) float64 {
	proc := float64(cfg.Proc)
	if proc == 0 {
		proc = 1
	}
	strategy := cfg.Strategy
	if strategy == nil {
		strategy = replicate.None{}
	}
	weights := cfg.Weights
	if weights == nil {
		weights = popularity.Zipf(cfg.M, 0)
	}
	// Average replica count under the popularity distribution.
	kbar := 0.0
	total := 0.0
	for u := 0; u < cfg.M; u++ {
		kbar += weights[u] * float64(strategy.Set(u, cfg.M).Len())
		total += weights[u]
	}
	if total > 0 {
		kbar /= total
	}
	perRequest := (1-cfg.WriteFraction)*proc + cfg.WriteFraction*kbar*proc
	return cfg.Rate * perRequest / float64(cfg.M)
}
