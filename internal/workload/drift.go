package workload

import (
	"fmt"
	"math/rand"

	"flowsched/internal/core"
	"flowsched/internal/popularity"
	"flowsched/internal/replicate"
)

// DriftConfig describes a workload whose popularity bias drifts over time:
// the Zipf weights are re-shuffled every segment, so the hot machines move
// while the replication layout stays fixed — the situation a static
// replication strategy must survive in a long-running store.
type DriftConfig struct {
	M        int
	N        int
	Rate     float64
	Proc     core.Time
	SBias    float64 // Zipf shape of every segment
	Segments int     // number of popularity epochs (≥ 1)
	Strategy replicate.Strategy
}

// GenerateDrift draws the drifting workload. Within each of the Segments
// epochs (equal task counts), primaries follow a freshly shuffled Zipf
// distribution. Like Generate, it builds the instance in one pass, one set
// per primary.
func GenerateDrift(cfg DriftConfig, rng *rand.Rand) (*core.Instance, error) {
	if cfg.M < 1 {
		return nil, fmt.Errorf("workload: need at least one machine")
	}
	if cfg.N < 0 {
		return nil, fmt.Errorf("workload: negative task count")
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("workload: arrival rate must be positive")
	}
	if cfg.Segments < 1 {
		return nil, fmt.Errorf("workload: need at least one segment")
	}
	if cfg.SBias < 0 {
		return nil, fmt.Errorf("workload: negative bias")
	}
	proc := cfg.Proc
	if proc == 0 {
		proc = 1
	}
	if proc < 0 {
		return nil, fmt.Errorf("workload: negative processing time")
	}
	strategy := cfg.Strategy
	if strategy == nil {
		strategy = replicate.None{}
	}

	sets := replicate.NewTable(strategy, cfg.M)
	tasks := make([]core.Task, cfg.N)
	t := core.Time(0)
	perSegment := cfg.N / cfg.Segments
	if perSegment == 0 {
		perSegment = 1
	}
	var sampler *popularity.Sampler
	for i := range tasks {
		if i%perSegment == 0 || sampler == nil {
			weights := popularity.Weights(popularity.Shuffled, cfg.M, cfg.SBias, rng)
			sampler = popularity.NewSampler(weights)
		}
		t += rng.ExpFloat64() / cfg.Rate
		primary := sampler.Sample(rng)
		tasks[i] = core.Task{
			Release: t,
			Proc:    proc,
			Set:     sets.Set(primary),
			Key:     primary,
		}
	}
	return core.AdoptInstance(cfg.M, tasks), nil
}
