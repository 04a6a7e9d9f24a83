package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"flowsched/internal/core"
	"flowsched/internal/popularity"
	"flowsched/internal/replicate"
	"flowsched/internal/sched"
	"flowsched/internal/workload"
)

func genInstance(seed int64, m, n int, k int) *core.Instance {
	rng := rand.New(rand.NewSource(seed))
	w := popularity.Weights(popularity.Shuffled, m, 1, rng)
	inst, err := workload.Generate(workload.Config{
		M: m, N: n, Rate: 0.8 * float64(m),
		Weights:  w,
		Strategy: replicate.Overlapping{K: k},
	}, rng)
	if err != nil {
		panic(err)
	}
	return inst
}

func TestRunMatchesSchedEFT(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 3 + rng.Intn(8)
		k := 2 + rng.Intn(m-1)
		inst := genInstance(seed, m, 200, k)
		for _, tie := range []sched.TieBreak{sched.MinTie{}, sched.MaxTie{}} {
			simSched, metrics, err := Run(inst, EFTRouter{Tie: tie})
			if err != nil {
				return false
			}
			if simSched.Validate() != nil {
				return false
			}
			ref, err := sched.NewEFT(tie).Run(inst)
			if err != nil {
				return false
			}
			for i := range inst.Tasks {
				if simSched.Machine[i] != ref.Machine[i] || simSched.Start[i] != ref.Start[i] {
					return false
				}
			}
			if math.Abs(metrics.MaxFlow()-ref.MaxFlow()) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsBasics(t *testing.T) {
	inst := core.NewInstance(2, []core.Task{
		{Release: 0, Proc: 2},
		{Release: 0, Proc: 2},
		{Release: 1, Proc: 2},
	})
	_, m, err := Run(inst, EFTRouter{})
	if err != nil {
		t.Fatal(err)
	}
	// T0→M1@0, T1→M2@0, T2→M1@2: flows 2, 2, 3.
	if m.MaxFlow() != 3 {
		t.Fatalf("MaxFlow = %v", m.MaxFlow())
	}
	if math.Abs(m.MeanFlow()-7.0/3) > 1e-12 {
		t.Fatalf("MeanFlow = %v", m.MeanFlow())
	}
	if m.Makespan != 4 {
		t.Fatalf("Makespan = %v", m.Makespan)
	}
	// Busy: M1 4 units, M2 2 units; utilization = 6 / (4·2) = 0.75.
	if math.Abs(m.Utilization()-0.75) > 1e-12 {
		t.Fatalf("Utilization = %v", m.Utilization())
	}
	if q := m.FlowQuantile(1); q != 3 {
		t.Fatalf("p100 = %v", q)
	}
}

func TestJSQRouterRespectsSets(t *testing.T) {
	prop := func(seed int64) bool {
		inst := genInstance(seed, 6, 150, 3)
		s, _, err := Run(inst, JSQRouter{})
		return err == nil && s.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomRouterRespectsSets(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inst := genInstance(9, 6, 200, 3)
	s, _, err := Run(inst, &RandomRouter{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEFTBeatsRandomUnderLoad sanity-checks the router hierarchy: under a
// steady load, the clairvoyant EFT router yields no worse a max response
// time than blind random routing.
func TestEFTBeatsRandomUnderLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	inst := genInstance(10, 9, 3000, 3)
	_, eft, err := Run(inst, EFTRouter{})
	if err != nil {
		t.Fatal(err)
	}
	_, rnd, err := Run(inst, &RandomRouter{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if eft.MaxFlow() > rnd.MaxFlow() {
		t.Fatalf("EFT Fmax %v worse than Random %v", eft.MaxFlow(), rnd.MaxFlow())
	}
}

// badRouter picks an ineligible server to exercise the engine's guard.
type badRouter struct{}

func (badRouter) Name() string                    { return "bad" }
func (badRouter) Pick(st *State, t core.Task) int { return st.M - 1 }

func TestRunRejectsBadRouter(t *testing.T) {
	inst := core.NewInstance(3, []core.Task{{Release: 0, Proc: 1, Set: core.NewProcSet(0)}})
	if _, _, err := Run(inst, badRouter{}); err == nil {
		t.Fatal("expected eligibility error")
	}
}

// TestRunRejectsInvalidInstance: an instance without machines is rejected
// before any task is read, with Validate's error.
func TestRunRejectsInvalidInstance(t *testing.T) {
	inst := &core.Instance{M: 0, Tasks: []core.Task{{Release: 1, Proc: 1}}}
	want := "sim: " + inst.Validate().Error()
	for _, r := range validateRouters() {
		if _, _, err := Run(inst, r); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", r.Name(), err, want)
		}
	}
}

// TestCompletionVisibleToJSQ pins the completion-before-arrival ordering:
// a request arriving exactly when a server drains must see that server
// empty.
func TestCompletionVisibleToJSQ(t *testing.T) {
	// M1 busy [0,1) with one task; M2 busy [0,2). At t=1 a new task
	// arrives: JSQ must see M1's queue at 0 and pick it.
	inst := core.NewInstance(2, []core.Task{
		{Release: 0, Proc: 1},
		{Release: 0, Proc: 2},
		{Release: 1, Proc: 1},
	})
	s, _, err := Run(inst, JSQRouter{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Machine[2] != 0 {
		t.Fatalf("third task on M%d, want M1 (completion at t=1 must be visible)", s.Machine[2]+1)
	}
}

func TestUtilizationEmpty(t *testing.T) {
	inst := core.NewInstance(2, nil)
	_, m, err := Run(inst, EFTRouter{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Utilization() != 0 || m.MaxFlow() != math.Inf(-1) && m.MaxFlow() != 0 {
		// MaxFlow of an empty run is stats.Max of empty = -Inf; accept either
		// convention but ensure no panic.
		_ = m
	}
}

func TestFlowsByKey(t *testing.T) {
	inst := core.NewInstance(2, []core.Task{
		{Release: 0, Proc: 1, Key: 7},
		{Release: 0, Proc: 1, Key: 7},
		{Release: 0, Proc: 1, Key: 3},
		{Release: 5, Proc: 1, Key: -1}, // untracked
	})
	_, m, err := Run(inst, EFTRouter{})
	if err != nil {
		t.Fatal(err)
	}
	byKey := FlowsByKey(inst, m)
	if len(byKey) != 2 {
		t.Fatalf("keys = %d, want 2", len(byKey))
	}
	if byKey[0].Key != 7 || byKey[0].Requests != 2 {
		t.Fatalf("hottest key = %+v", byKey[0])
	}
	if byKey[1].Key != 3 || byKey[1].Requests != 1 {
		t.Fatalf("second key = %+v", byKey[1])
	}
	if byKey[0].MaxFlow < byKey[0].MeanFlow {
		t.Fatalf("max below mean")
	}
}

func TestHotKeyPenalty(t *testing.T) {
	inst := genInstance(31, 9, 4000, 3)
	_, m, err := Run(inst, EFTRouter{})
	if err != nil {
		t.Fatal(err)
	}
	hot, cold := HotKeyPenalty(inst, m, 0.2)
	if hot <= 0 || cold <= 0 {
		t.Fatalf("penalty values implausible: hot %v cold %v", hot, cold)
	}
	// With replication, hot keys should not be catastrophically worse.
	if hot > 20*cold {
		t.Fatalf("hot keys %vx worse than cold — replication broken?", hot/cold)
	}
	// Degenerate fraction.
	h0, c0 := HotKeyPenalty(inst, m, 0)
	if h0 != 0 || c0 <= 0 {
		t.Fatalf("topFraction=0: hot %v cold %v", h0, c0)
	}
}
