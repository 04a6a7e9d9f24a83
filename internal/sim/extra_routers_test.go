package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"flowsched/internal/core"
	"flowsched/internal/sched"
)

func TestPowerOfTwoRespectsSets(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := genInstance(seed, 8, 150, 3)
		s, _, err := Run(inst, PowerOfTwoRouter{Rng: rng})
		return err == nil && s.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPowerOfTwoBeatsRandom(t *testing.T) {
	// The classic result: two choices beat one by a lot under load.
	inst := genInstance(21, 12, 6000, 3)
	_, po2, err := Run(inst, PowerOfTwoRouter{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	_, rnd, err := Run(inst, &RandomRouter{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if po2.MeanFlow() > rnd.MeanFlow() {
		t.Fatalf("Po2 mean flow %v worse than random %v", po2.MeanFlow(), rnd.MeanFlow())
	}
}

func TestRoundRobinCyclesAndRespectsSets(t *testing.T) {
	inst := core.NewInstance(3, []core.Task{
		{Release: 0, Proc: 1},
		{Release: 0, Proc: 1},
		{Release: 0, Proc: 1},
		{Release: 0, Proc: 1},
	})
	s, _, err := Run(inst, &RoundRobinRouter{})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 0}
	for i, w := range want {
		if s.Machine[i] != w {
			t.Fatalf("task %d on M%d, want M%d", i, s.Machine[i]+1, w+1)
		}
	}
	restricted := genInstance(22, 6, 100, 2)
	s2, _, err := Run(restricted, &RoundRobinRouter{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNoisyEFTZeroNoiseMatchesEFT(t *testing.T) {
	prop := func(seed int64) bool {
		inst := genInstance(seed, 7, 200, 3)
		noisy := &NoisyEFTRouter{Tie: sched.MinTie{}, RelErr: 0, Rng: rand.New(rand.NewSource(1))}
		s1, _, err := Run(inst, noisy)
		if err != nil {
			return false
		}
		s2, _, err := Run(inst, EFTRouter{Tie: sched.MinTie{}})
		if err != nil {
			return false
		}
		for i := range inst.Tasks {
			if s1.Machine[i] != s2.Machine[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNoisyEFTDegradesGracefully(t *testing.T) {
	// Noise should hurt, but moderate noise must not collapse to
	// random-level performance.
	inst := genInstance(23, 12, 8000, 3)
	_, exact, err := Run(inst, EFTRouter{})
	if err != nil {
		t.Fatal(err)
	}
	_, noisy, err := Run(inst, &NoisyEFTRouter{RelErr: 0.5, Rng: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	_, rnd, err := Run(inst, &RandomRouter{Rng: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	if noisy.MeanFlow() < exact.MeanFlow()-1e-9 {
		t.Logf("noisy unexpectedly beat exact (possible on one instance): %v vs %v",
			noisy.MeanFlow(), exact.MeanFlow())
	}
	if noisy.MeanFlow() > rnd.MeanFlow() {
		t.Fatalf("50%% noise should stay far better than random: noisy %v vs random %v",
			noisy.MeanFlow(), rnd.MeanFlow())
	}
}

func TestNoisyEFTValidSchedules(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := genInstance(seed, 6, 150, 3)
		s, _, err := Run(inst, &NoisyEFTRouter{RelErr: rng.Float64(), Rng: rng})
		return err == nil && s.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRouterNames(t *testing.T) {
	if (PowerOfTwoRouter{}).Name() != "Po2" ||
		(&RoundRobinRouter{}).Name() != "RR" ||
		(&NoisyEFTRouter{}).Name() != "EFT-noisy" ||
		(EFTRouter{}).Name() != "EFT-Min" ||
		(EFTRouter{Tie: sched.MaxTie{}}).Name() != "EFT-Max" ||
		(JSQRouter{}).Name() != "JSQ" ||
		(&RandomRouter{}).Name() != "Random" {
		t.Fatalf("router names wrong")
	}
}

func TestUnrestrictedRouterPaths(t *testing.T) {
	// Exercise the nil-set branches of every router.
	tasks := make([]core.Task, 50)
	tm := 0.0
	rng := rand.New(rand.NewSource(33))
	for i := range tasks {
		tm += rng.ExpFloat64()
		tasks[i] = core.Task{Release: tm, Proc: 1}
	}
	inst := core.NewInstance(4, tasks)
	for _, r := range []Router{
		PowerOfTwoRouter{Rng: rand.New(rand.NewSource(1))},
		&RoundRobinRouter{},
		&NoisyEFTRouter{RelErr: 0.2, Rng: rand.New(rand.NewSource(2))},
		&RandomRouter{Rng: rand.New(rand.NewSource(3))},
		JSQRouter{},
	} {
		s, _, err := Run(inst, r)
		if err != nil || s.Validate() != nil {
			t.Fatalf("%s on unrestricted: %v", r.Name(), err)
		}
	}
}

// TestSteadyStateMaxFlowEdges: on one machine the flows are 4, 1 and 2, so
// the whole run's maximum (4) differs from every tail's. A negative or NaN
// skip is the whole run, and skip ≥ 1 leaves nothing.
func TestSteadyStateMaxFlowEdges(t *testing.T) {
	inst := core.NewInstance(1, []core.Task{
		{Release: 0, Proc: 4},
		{Release: 4, Proc: 1},
		{Release: 4, Proc: 1},
	})
	_, m, err := Run(inst, EFTRouter{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		skip float64
		want core.Time
	}{
		{math.NaN(), 4}, {math.Inf(-1), 4}, {-1, 4}, {0, 4}, {0.5, 2}, {0.9, 2},
		{1, 0}, {1.5, 0}, {math.Inf(1), 0},
	} {
		if got := m.SteadyStateMaxFlow(c.skip); got != c.want {
			t.Errorf("SteadyStateMaxFlow(%v) = %v, want %v", c.skip, got, c.want)
		}
	}
}
