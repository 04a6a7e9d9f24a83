// Package workload generates the task streams of Section 7: tasks with unit
// processing times released by a Poisson process with rate λ, each carrying
// a key whose primary machine is drawn from a popularity distribution and
// whose processing set is derived through a replication strategy.
package workload

import (
	"fmt"
	"math/rand"

	"flowsched/internal/core"
	"flowsched/internal/popularity"
	"flowsched/internal/replicate"
)

// Dist selects the service-time distribution of generated tasks.
type Dist int

// Service-time distributions.
const (
	// ProcConstant gives every task processing time Proc (the paper's
	// unit-task setting when Proc = 1).
	ProcConstant Dist = iota
	// ProcExponential draws processing times exponentially with mean Proc
	// (an M/M/· system, used to validate the simulator against queueing
	// theory).
	ProcExponential
	// ProcUniform draws uniformly from (0, 2·Proc), mean Proc.
	ProcUniform
)

// Config describes a generated workload.
type Config struct {
	M        int                // cluster size
	N        int                // number of tasks
	Rate     float64            // Poisson arrival rate λ (tasks per time unit)
	Proc     core.Time          // processing time of every task (default 1)
	Dist     Dist               // service-time distribution (default constant)
	Weights  []float64          // machine popularity P(E_j); nil = uniform
	Strategy replicate.Strategy // replication strategy; nil = no replication
}

// Generate draws an instance from the configuration using rng. Arrivals
// follow a Poisson process (exponential inter-arrival times with mean 1/λ);
// the task's key primary is drawn from Weights and its processing set is the
// strategy's replication interval of that primary. The Key field records the
// primary machine.
//
// The instance is built in one pass. The tasks of one primary share one
// set, asked of the strategy on first use. Releases accumulate positive
// draws, so the tasks are written in release order, and core.AdoptInstance
// keeps them without a copy or a sort.
func Generate(cfg Config, rng *rand.Rand) (*core.Instance, error) {
	if cfg.M < 1 {
		return nil, fmt.Errorf("workload: need at least one machine")
	}
	if cfg.N < 0 {
		return nil, fmt.Errorf("workload: negative task count")
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("workload: arrival rate must be positive, got %v", cfg.Rate)
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
	if err := replicate.Validate(strategy, cfg.M); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	sampler := popularity.NewSampler(weights)

	drawProc := func() core.Time {
		switch cfg.Dist {
		case ProcExponential:
			return proc * rng.ExpFloat64()
		case ProcUniform:
			return 2 * proc * rng.Float64()
		default:
			return proc
		}
	}

	sets := replicate.NewTable(strategy, cfg.M)
	tasks := make([]core.Task, cfg.N)
	t := core.Time(0)
	for i := range tasks {
		t += rng.ExpFloat64() / cfg.Rate
		primary := sampler.Sample(rng)
		p := drawProc()
		for p <= 0 { // redraw the measure-zero degenerate samples
			p = drawProc()
		}
		tasks[i] = core.Task{
			Release: t,
			Proc:    p,
			Set:     sets.Set(primary),
			Key:     primary,
		}
	}
	return core.AdoptInstance(cfg.M, tasks), nil
}

// UnitBatches builds a deterministic instance that releases, at each integer
// time 0..rounds-1, one unit task per entry of batch, where batch[i] gives
// the processing set of the i-th task of the round (nil = unrestricted).
// Tasks within a round keep the order of batch. This is the building block
// of the adversary streams.
func UnitBatches(m, rounds int, batch []core.ProcSet) *core.Instance {
	var tasks []core.Task
	for t := 0; t < rounds; t++ {
		for _, set := range batch {
			tasks = append(tasks, core.Task{
				Release: core.Time(t),
				Proc:    1,
				Set:     set.Clone(),
				Key:     -1,
			})
		}
	}
	return core.NewInstance(m, tasks)
}

// AverageLoad returns the cluster load λ/m implied by a rate, as a fraction
// (1.0 = 100%).
func AverageLoad(rate float64, m int) float64 { return rate / float64(m) }

// RateForLoad returns the Poisson rate λ giving the requested average
// cluster load (fraction of 1).
func RateForLoad(load float64, m int) float64 { return load * float64(m) }
