package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/eventq"
)

// seedFIFORun is the original FIFO event loop: every release and every
// completion pushed into one event heap of up to 2n entries, and a fresh
// scan of all machines for the idle set at each pull. It is the oracle for
// the equivalence tests — the optimized Run must schedule byte-identically.
func seedFIFORun(tie TieBreak, inst *core.Instance) (*core.Schedule, error) {
	s := core.NewSchedule(inst)
	completion := make([]core.Time, inst.M)
	var events eventq.Queue[struct{}]
	for _, t := range inst.Tasks {
		events.Push(t.Release, struct{}{})
	}
	next := 0
	released := func(t core.Time) bool {
		return next < inst.N() && inst.Tasks[next].Release <= t
	}
	for events.Len() > 0 {
		now, _ := events.Pop()
		for released(now) {
			var idle []int
			for j, c := range completion {
				if c <= now {
					idle = append(idle, j)
				}
			}
			if len(idle) == 0 {
				break
			}
			j := tie.Pick(idle)
			task := inst.Tasks[next]
			s.Assign(task.ID, j, now)
			completion[j] = now + task.Proc
			events.Push(completion[j], struct{}{})
			next++
		}
	}
	return s, nil
}

func fifoInstance(m, n int, rng *rand.Rand) *core.Instance {
	tasks := make([]core.Task, n)
	tm := 0.0
	for i := range tasks {
		tm += rng.ExpFloat64() / float64(m)
		if rng.Intn(25) == 0 {
			tm += 10 // idle gaps: all machines drain
		}
		tasks[i] = core.Task{Release: tm, Proc: 0.2 + rng.Float64()*2}
	}
	return core.NewInstance(m, tasks)
}

// fifoTiedInstance draws integer releases with many simultaneous arrivals
// and integral processing times, so completions coincide with releases and
// with each other; some tasks carry the explicit full set.
func fifoTiedInstance(m, n int, rng *rand.Rand) *core.Instance {
	tasks := make([]core.Task, n)
	for i := range tasks {
		tasks[i] = core.Task{Release: float64(rng.Intn(n / m)), Proc: float64(1 + rng.Intn(3))}
		if rng.Intn(4) == 0 {
			tasks[i].Set = core.Interval(0, m-1)
		}
	}
	return core.NewInstance(m, tasks)
}

// TestFIFOEquivalenceWithSeed pins the release-cursor FIFO loop to the
// original event loop across tie-break policies — Min, Max and a seeded
// Rand, which sees the idle machines as a slice — on real and integer
// releases.
func TestFIFOEquivalenceWithSeed(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(8)
		var inst *core.Instance
		if seed%2 == 0 {
			inst = fifoInstance(m, 300, rng)
		} else {
			inst = fifoTiedInstance(m, 300, rng)
		}
		for _, tie := range []func() TieBreak{
			func() TieBreak { return MinTie{} },
			func() TieBreak { return MaxTie{} },
			func() TieBreak { return RandTie{Rng: rand.New(rand.NewSource(seed))} },
		} {
			got, err := (&FIFO{Tie: tie()}).Run(inst)
			if err != nil {
				t.Fatal(err)
			}
			want, err := seedFIFORun(tie(), inst)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Machine, want.Machine) || !reflect.DeepEqual(got.Start, want.Start) {
				t.Fatalf("seed %d, tie %s: optimized FIFO diverged from seed implementation", seed, tie().Name())
			}
		}
	}
}

// TestFIFOAllocsConstant asserts the dispatch inner loop allocates nothing:
// total allocations per Run stay far below one per task.
func TestFIFOAllocsConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	inst := fifoInstance(8, 2000, rng)
	avg := testing.AllocsPerRun(5, func() {
		if _, err := (&FIFO{}).Run(inst); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 64 {
		t.Errorf("%v allocs per FIFO.Run of %d tasks: the dispatch loop allocates", avg, inst.N())
	}
}

// TestEFTAllocsConstant gives sched.EFT (the TieSet rewrite) the same
// guard.
func TestEFTAllocsConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	inst := fifoInstance(8, 2000, rng)
	e := NewEFT(MinTie{})
	avg := testing.AllocsPerRun(5, func() {
		if _, err := e.Run(inst); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 64 {
		t.Errorf("%v allocs per EFT.Run of %d tasks: TieSet allocates", avg, inst.N())
	}
}
