package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flowsched/internal/core"
)

// disjointInstance draws a random instance whose sets partition the
// machines into consecutive blocks of size k.
func disjointInstance(rng *rand.Rand, k, blocks, n int) *core.Instance {
	m := k * blocks
	tasks := make([]core.Task, n)
	t := 0.0
	for i := range tasks {
		t += rng.ExpFloat64()
		b := rng.Intn(blocks)
		tasks[i] = core.Task{
			Release: t,
			Proc:    0.2 + rng.Float64()*2,
			Set:     core.Interval(b*k, b*k+k-1),
		}
	}
	return core.NewInstance(m, tasks)
}

// TestTheorem6AdapterEqualsEFT: per Theorem 6 with EFT inside, the adapted
// algorithm is EXACTLY EFT restricted per block (EFT already treats blocks
// independently), so schedules must coincide.
func TestTheorem6AdapterEqualsEFT(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		blocks := 1 + rng.Intn(3)
		inst := disjointInstance(rng, k, blocks, 40)
		adapter := NewPerSetAdapter("EFT-Min", func() Online { return NewEFT(MinTie{}) })
		sa, err := adapter.Run(inst)
		if err != nil {
			return false
		}
		if sa.Validate() != nil {
			return false
		}
		se, err := NewEFT(MinTie{}).Run(inst)
		if err != nil {
			return false
		}
		for i := range inst.Tasks {
			if sa.Machine[i] != se.Machine[i] || sa.Start[i] != se.Start[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestTheorem6AdapterWithHeap: the per-set adapter, running one
// unrestricted EFT-Min per block of a disjoint instance, starts every task
// exactly when EFT-Min on the whole instance does (Theorem 6's reduction).
func TestTheorem6AdapterWithHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inst := disjointInstance(rng, 3, 3, 60)
	adapter := NewPerSetAdapter("EFT-Min", func() Online { return NewEFT(MinTie{}) })
	s, err := adapter.Run(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Start times coincide with EFT-Min on the whole instance.
	ref, err := NewEFT(MinTie{}).Run(inst)
	if err != nil {
		t.Fatal(err)
	}
	for i := range inst.Tasks {
		if s.Start[i] != ref.Start[i] {
			t.Fatalf("task %d: start %v vs EFT %v", i, s.Start[i], ref.Start[i])
		}
	}
}

func TestAdapterRejectsOverlapping(t *testing.T) {
	inst := core.NewInstance(3, []core.Task{
		{Release: 0, Proc: 1, Set: core.Interval(0, 1)},
		{Release: 0, Proc: 1, Set: core.Interval(1, 2)},
	})
	adapter := NewPerSetAdapter("EFT-Min", func() Online { return NewEFT(MinTie{}) })
	if _, err := adapter.Run(inst); err == nil {
		t.Fatal("overlapping family accepted")
	}
}

func TestAdapterUnrestrictedBlock(t *testing.T) {
	// Unrestricted tasks resolve to the full cluster as one block.
	inst := core.NewInstance(3, []core.Task{
		{Release: 0, Proc: 1},
		{Release: 0, Proc: 1},
		{Release: 0, Proc: 1},
		{Release: 0, Proc: 1},
	})
	adapter := NewPerSetAdapter("EFT-Min", func() Online { return NewEFT(MinTie{}) })
	s, err := adapter.Run(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.MaxFlow() != 2 {
		t.Fatalf("Fmax = %v, want 2 (4 unit tasks on 3 machines)", s.MaxFlow())
	}
}

func TestAdapterName(t *testing.T) {
	adapter := NewPerSetAdapter("FIFO", func() Online { return NewEFT(nil) })
	if adapter.Name() != "per-set(FIFO)" {
		t.Fatalf("name = %q", adapter.Name())
	}
}
