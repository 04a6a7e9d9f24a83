package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"flowsched/internal/core"
	"flowsched/internal/popularity"
	"flowsched/internal/replicate"
)

func TestGenerateBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inst, err := Generate(Config{M: 6, N: 100, Rate: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	if inst.N() != 100 || inst.M != 6 {
		t.Fatalf("n=%d m=%d", inst.N(), inst.M)
	}
	if !inst.UnitTasks() {
		t.Fatalf("default tasks should be unit")
	}
	for _, task := range inst.Tasks {
		if task.Set.Len() != 1 || task.Set[0] != task.Key {
			t.Fatalf("no-replication set should be the primary: %v key %d", task.Set, task.Key)
		}
	}
}

func TestGenerateInterArrivalMean(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const rate = 4.0
	inst, err := Generate(Config{M: 3, N: 20000, Rate: rate}, rng)
	if err != nil {
		t.Fatal(err)
	}
	last := inst.Tasks[inst.N()-1].Release
	gotRate := float64(inst.N()) / last
	if math.Abs(gotRate-rate)/rate > 0.05 {
		t.Fatalf("empirical rate %v, want ~%v", gotRate, rate)
	}
}

func TestGeneratePrimariesFollowWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := popularity.Zipf(5, 1)
	inst, err := Generate(Config{M: 5, N: 50000, Rate: 5, Weights: w}, rng)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, 5)
	for _, task := range inst.Tasks {
		counts[task.Key]++
	}
	for j := range counts {
		got := counts[j] / float64(inst.N())
		if math.Abs(got-w[j]) > 0.01 {
			t.Fatalf("primary %d frequency %v, want %v", j, got, w[j])
		}
	}
}

func TestGenerateWithStrategy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inst, err := Generate(Config{
		M: 6, N: 200, Rate: 2,
		Strategy: replicate.Overlapping{K: 3},
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range inst.Tasks {
		want := core.MustRingInterval(task.Key, 3, 6)
		if !task.Set.Equal(want) {
			t.Fatalf("set %v for primary %d, want %v", task.Set, task.Key, want)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []Config{
		{M: 0, N: 1, Rate: 1},
		{M: 2, N: -1, Rate: 1},
		{M: 2, N: 1, Rate: 0},
		{M: 2, N: 1, Rate: 1, Proc: -1},
		{M: 2, N: 1, Rate: 1, Weights: []float64{1}},
	}
	for i, cfg := range cases {
		if _, err := Generate(cfg, rng); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestGenerateCustomProc(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	inst, err := Generate(Config{M: 2, N: 10, Rate: 1, Proc: 2.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range inst.Tasks {
		if task.Proc != 2.5 {
			t.Fatalf("proc = %v", task.Proc)
		}
	}
}

func TestLoadHelpers(t *testing.T) {
	if RateForLoad(0.9, 15) != 13.5 {
		t.Fatalf("RateForLoad wrong")
	}
	if AverageLoad(13.5, 15) != 0.9 {
		t.Fatalf("AverageLoad wrong")
	}
}

func TestGenerateInstancesValidProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(10)
		k := 1 + rng.Intn(m)
		var strat replicate.Strategy
		switch rng.Intn(3) {
		case 0:
			strat = replicate.Overlapping{K: k}
		case 1:
			strat = replicate.Disjoint{K: k}
		default:
			strat = replicate.None{}
		}
		w := popularity.Weights(popularity.Shuffled, m, rng.Float64()*3, rng)
		inst, err := Generate(Config{M: m, N: 50, Rate: 1 + rng.Float64()*5, Weights: w, Strategy: strat}, rng)
		if err != nil {
			return false
		}
		return inst.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
