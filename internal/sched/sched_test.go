package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flowsched/internal/core"
)

// randomInstance draws a random unrestricted instance.
func randomInstance(rng *rand.Rand, m, n int) *core.Instance {
	tasks := make([]core.Task, n)
	t := 0.0
	for i := range tasks {
		t += rng.ExpFloat64()
		tasks[i] = core.Task{Release: t, Proc: 0.1 + rng.Float64()*3}
	}
	return core.NewInstance(m, tasks)
}

// randomRestrictedInstance draws a random instance with arbitrary processing
// sets.
func randomRestrictedInstance(rng *rand.Rand, m, n int) *core.Instance {
	tasks := make([]core.Task, n)
	t := 0.0
	for i := range tasks {
		t += rng.ExpFloat64()
		var ids []int
		for j := 0; j < m; j++ {
			if rng.Intn(2) == 0 {
				ids = append(ids, j)
			}
		}
		if len(ids) == 0 {
			ids = append(ids, rng.Intn(m))
		}
		tasks[i] = core.Task{Release: t, Proc: 0.1 + rng.Float64()*3, Set: core.NewProcSet(ids...)}
	}
	return core.NewInstance(m, tasks)
}

func TestEFTSimpleExample(t *testing.T) {
	// Two machines; three tasks at time 0 with p=2,2,1; then one at time 1.
	inst := core.NewInstance(2, []core.Task{
		{Release: 0, Proc: 2},
		{Release: 0, Proc: 2},
		{Release: 0, Proc: 1},
		{Release: 1, Proc: 1},
	})
	s, err := NewEFT(MinTie{}).Run(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// T0 -> M0@0, T1 -> M1@0, T2 -> M0@2 (tie 2,2 -> min), T3 -> M1@2.
	if s.Machine[0] != 0 || s.Machine[1] != 1 {
		t.Fatalf("first two assignments: %v", s.Machine)
	}
	if s.Machine[2] != 0 || s.Start[2] != 2 {
		t.Fatalf("T2 on M%d@%v, want M1@2", s.Machine[2]+1, s.Start[2])
	}
	if s.Machine[3] != 1 || s.Start[3] != 2 {
		t.Fatalf("T3 on M%d@%v, want M2@2", s.Machine[3]+1, s.Start[3])
	}
	if s.MaxFlow() != 3 {
		t.Fatalf("Fmax = %v, want 3", s.MaxFlow())
	}
}

func TestEFTTieSet(t *testing.T) {
	e := NewEFT(MinTie{})
	e.Reset(3)
	// Occupy machines: C = [5, 3, 3].
	e.completion = []core.Time{5, 3, 3}
	// Release at 0: tmin = max(0, 3) = 3 -> U = {1,2}.
	u := e.TieSet(0, nil)
	if len(u) != 2 || u[0] != 1 || u[1] != 2 {
		t.Fatalf("TieSet = %v, want [1 2]", u)
	}
	// Release at 10: all idle -> U = {0,1,2}.
	u = e.TieSet(10, nil)
	if len(u) != 3 {
		t.Fatalf("TieSet = %v, want all", u)
	}
	// Restricted to {0}: U = {0}.
	u = e.TieSet(0, core.NewProcSet(0))
	if len(u) != 1 || u[0] != 0 {
		t.Fatalf("TieSet = %v, want [0]", u)
	}
}

func TestEFTRespectsProcessingSets(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(8)
		inst := randomRestrictedInstance(rng, m, 40)
		for _, tie := range []TieBreak{MinTie{}, MaxTie{}, RandTie{Rng: rng}} {
			s, err := NewEFT(tie).Run(inst)
			if err != nil || s.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestProposition1 verifies FIFO(I) = EFT(I) on P|online-r_i|Fmax for the
// Min and Max tie-breaks and for Rand with a shared random stream.
func TestProposition1(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(6)
		inst := randomInstance(rng, m, 60)
		for _, mk := range []func() (Algorithm, Algorithm){
			func() (Algorithm, Algorithm) {
				return NewEFT(MinTie{}), &FIFO{Tie: MinTie{}}
			},
			func() (Algorithm, Algorithm) {
				return NewEFT(MaxTie{}), &FIFO{Tie: MaxTie{}}
			},
			func() (Algorithm, Algorithm) {
				return NewEFT(RandTie{Rng: rand.New(rand.NewSource(99))}),
					&FIFO{Tie: RandTie{Rng: rand.New(rand.NewSource(99))}}
			},
		} {
			eft, fifo := mk()
			se, err1 := eft.Run(inst)
			sf, err2 := fifo.Run(inst)
			if err1 != nil || err2 != nil {
				return false
			}
			for i := range inst.Tasks {
				if se.Machine[i] != sf.Machine[i] || se.Start[i] != sf.Start[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestProposition1WithTies stresses the equivalence on instances with many
// exact ties (integral releases and unit tasks).
func TestProposition1WithTies(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(5)
		tasks := make([]core.Task, 50)
		for i := range tasks {
			tasks[i] = core.Task{Release: float64(rng.Intn(10)), Proc: 1}
		}
		inst := core.NewInstance(m, tasks)
		se, err1 := NewEFT(MinTie{}).Run(inst)
		sf, err2 := (&FIFO{Tie: MinTie{}}).Run(inst)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range inst.Tasks {
			if se.Machine[i] != sf.Machine[i] || se.Start[i] != sf.Start[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFIFORejectsRestricted(t *testing.T) {
	inst := core.NewInstance(2, []core.Task{{Release: 0, Proc: 1, Set: core.NewProcSet(0)}})
	if _, err := (&FIFO{}).Run(inst); err == nil {
		t.Fatalf("FIFO should reject restricted instances")
	}
}

func TestFIFOAcceptsExplicitFullSet(t *testing.T) {
	inst := core.NewInstance(2, []core.Task{{Release: 0, Proc: 1, Set: core.Interval(0, 1)}})
	if _, err := (&FIFO{}).Run(inst); err != nil {
		t.Fatalf("full-interval set should be accepted: %v", err)
	}
}

func TestJSQProducesValidSchedules(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(6)
		inst := randomRestrictedInstance(rng, m, 50)
		s, err := NewJSQ().Run(inst)
		return err == nil && s.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestJSQPrefersEmptyQueue(t *testing.T) {
	inst := core.NewInstance(2, []core.Task{
		{Release: 0, Proc: 10},
		{Release: 1, Proc: 1},
	})
	s, err := NewJSQ().Run(inst)
	if err != nil {
		t.Fatal(err)
	}
	if s.Machine[1] != 1 {
		t.Fatalf("second task should join the empty queue, got M%d", s.Machine[1]+1)
	}
}

func TestTieBreakNames(t *testing.T) {
	if (MinTie{}).Name() != "Min" || (MaxTie{}).Name() != "Max" || (RandTie{}).Name() != "Rand" {
		t.Fatalf("tie-break names wrong")
	}
	if NewEFT(nil).Name() != "EFT-Min" || NewEFT(MaxTie{}).Name() != "EFT-Max" {
		t.Fatalf("EFT names wrong")
	}
	if (&FIFO{}).Name() != "FIFO-Min" {
		t.Fatalf("FIFO name wrong")
	}
}

func TestRandTieCoversAllCandidates(t *testing.T) {
	r := RandTie{Rng: rand.New(rand.NewSource(1))}
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[r.Pick([]int{3, 5, 9})] = true
	}
	if !seen[3] || !seen[5] || !seen[9] {
		t.Fatalf("RandTie should give every candidate positive probability, saw %v", seen)
	}
}

// TestEFTWorkConserving checks that under EFT a machine is never left idle
// while a task it could run is waiting on it (immediate dispatch keeps
// per-machine queues busy).
func TestEFTWorkConserving(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst := randomInstance(rng, 3, 60)
	s, err := NewEFT(MinTie{}).Run(inst)
	if err != nil {
		t.Fatal(err)
	}
	// On each machine, consecutive tasks either touch or the later one
	// starts exactly at its release (the gap is forced by releases).
	for _, ids := range s.MachineTasks() {
		for x := 1; x < len(ids); x++ {
			prev, cur := ids[x-1], ids[x]
			gap := s.Start[cur] - s.Completion(prev)
			if gap > 1e-9 && s.Start[cur] != inst.Tasks[cur].Release {
				t.Fatalf("machine idle from %v to %v with task %d dispatched later than release",
					s.Completion(prev), s.Start[cur], cur)
			}
		}
	}
}

func TestEFTStateAccessors(t *testing.T) {
	e := NewEFT(MinTie{})
	e.Reset(3)
	e.Dispatch(core.Task{Release: 0, Proc: 2})
	e.Dispatch(core.Task{Release: 0, Proc: 1})
	if e.Completion(0) != 2 || e.Completion(1) != 1 || e.Completion(2) != 0 {
		t.Fatalf("completions = %v", e.Completions())
	}
	cs := e.Completions()
	cs[0] = 99 // copies, not aliases
	if e.Completion(0) != 2 {
		t.Fatalf("Completions must return a copy")
	}
	w := e.WaitingWork(0.5)
	if w[0] != 1.5 || w[1] != 0.5 || w[2] != 0 {
		t.Fatalf("WaitingWork = %v", w)
	}
}

func TestRunRejectsInvalidInstances(t *testing.T) {
	bad := &core.Instance{M: 0}
	for _, alg := range []Algorithm{
		NewEFT(MinTie{}), NewJSQ(), &FIFO{},
		AsAlgorithm(NewEFT(MaxTie{})),
	} {
		if _, err := alg.Run(bad); err == nil {
			t.Errorf("%s accepted an invalid instance", alg.Name())
		}
	}
}

func TestAsAlgorithm(t *testing.T) {
	alg := AsAlgorithm(NewJSQ())
	if alg.Name() != "JSQ" {
		t.Fatalf("name = %q", alg.Name())
	}
	inst := core.NewInstance(2, []core.Task{{Release: 0, Proc: 1}})
	s, err := alg.Run(inst)
	if err != nil || s.Validate() != nil {
		t.Fatalf("AsAlgorithm run failed: %v", err)
	}
}

func TestMoreNames(t *testing.T) {
	if (&FIFO{Tie: MaxTie{}}).Name() != "FIFO-Max" {
		t.Fatalf("FIFO-Max name")
	}
	if NewJSQ().Name() != "JSQ" {
		t.Fatalf("JSQ name")
	}
}
