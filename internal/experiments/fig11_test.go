package experiments

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/popularity"
	"flowsched/internal/replicate"
)

// oracleInstanceFor is the per-task construction instanceFor replaced: a
// strategy call per task and core.NewInstance's copy and stable sort.
func oracleInstanceFor(m int, releases []core.Time, primaries []int, strat replicate.Strategy) *core.Instance {
	tasks := make([]core.Task, len(releases))
	for i := range tasks {
		tasks[i] = core.Task{Release: releases[i], Proc: 1, Set: strat.Set(primaries[i], m), Key: primaries[i]}
	}
	return core.NewInstance(m, tasks)
}

// TestInstanceForMatchesPerTaskOracle: Fig. 11's one-pass instances equal
// the per-task construction for both of its strategies and the others, at
// every popularity case, n = 0 and m = 1 included.
func TestInstanceForMatchesPerTaskOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		m := 1 + rng.Intn(20)
		k := 1 + rng.Intn(m)
		n := rng.Intn(2000)
		if trial == 0 {
			n = 0
		}
		c := []popularity.Case{popularity.Uniform, popularity.Shuffled, popularity.Worst}[trial%3]
		weights := popularity.Weights(c, m, 1, rng)
		releases, primaries := drawArrivals(n, 0.8*float64(m), weights, rng)
		seed := rng.Int63()
		strategies := func() []replicate.Strategy {
			return append(fig11Strategies(k), replicate.None{}, replicate.OffsetDisjoint{K: k, Offset: 1},
				replicate.NewRandomK(k, rand.New(rand.NewSource(seed))))
		}
		got, want := strategies(), strategies()
		for si := range got {
			name := fmt.Sprintf("trial %d, %s, m %d, n %d", trial, got[si].Name(), m, n)
			inst := instanceFor(m, releases, primaries, got[si])
			if !reflect.DeepEqual(inst, oracleInstanceFor(m, releases, primaries, want[si])) {
				t.Fatalf("%s: one-pass instance differs from the per-task construction", name)
			}
			if err := inst.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}
