package sim

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/faults"
)

// TestRetryBackoffClampNoOverflow is the regression test for the backoff
// overflow: with factor 2 the delay doubles per attempt, so past ~60
// attempts an unclamped product leaves float64's exact-integer range and
// soon overflows to +Inf, poisoning the retry event queue.
func TestRetryBackoffClampNoOverflow(t *testing.T) {
	p := RetryPolicy{Backoff: 1, BackoffFactor: 2}
	for _, attempts := range []int{61, 70, 100, 1000, 1 << 20} {
		d := p.delay(attempts)
		if math.IsInf(d, 0) || math.IsNaN(d) {
			t.Fatalf("delay(%d) = %v, want finite", attempts, d)
		}
		if d != maxBackoff {
			t.Fatalf("delay(%d) = %v, want clamp %v", attempts, d, maxBackoff)
		}
	}
	// Below the clamp the exponential schedule is untouched.
	if got := p.delay(5); got != 16 {
		t.Fatalf("delay(5) = %v, want 16", got)
	}
	// A huge base backoff is clamped even on the first retry.
	huge := RetryPolicy{Backoff: core.Time(math.MaxFloat64), BackoffFactor: 10}
	if got := huge.delay(1); got != maxBackoff {
		t.Fatalf("huge base delay = %v, want clamp %v", got, maxBackoff)
	}
	if got := huge.delay(400); math.IsInf(got, 0) || got != maxBackoff {
		t.Fatalf("huge delay(400) = %v, want clamp %v", got, maxBackoff)
	}
}

// TestSlowdownScalesServiceTime: a factor-2 gray window doubles service
// time, and the extra wall-clock occupancy is accounted as busy time.
func TestSlowdownScalesServiceTime(t *testing.T) {
	inst := core.NewInstance(1, []core.Task{
		{Release: 0, Proc: 10},
		{Release: 0, Proc: 10},
	})
	plan := faults.Empty(1).Slow(0, 0, 100, 2)
	s, m, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if s.Start[0] != 0 || m.Flows[0] != 20 {
		t.Fatalf("first task start %v flow %v, want 0 / 20", s.Start[0], m.Flows[0])
	}
	if s.Start[1] != 20 || m.Flows[1] != 40 {
		t.Fatalf("second task start %v flow %v, want 20 / 40", s.Start[1], m.Flows[1])
	}
	if m.Busy[0] != 40 {
		t.Fatalf("Busy = %v, want 40 (whole occupancy is busy)", m.Busy[0])
	}
	if m.Makespan != 40 {
		t.Fatalf("Makespan = %v, want 40", m.Makespan)
	}

	// Partial overlap: [5, 15) at factor 3. The 10-unit task spends 5 units
	// at full speed, then needs 15 wall units for its remaining 5 but the
	// window only has 10 — 10/3 units done there, 5/3 done after recovery.
	inst2 := core.NewInstance(1, []core.Task{{Release: 0, Proc: 10}})
	plan2 := faults.Empty(1).Slow(0, 5, 15, 3)
	_, m2, err := NewArena().Run(inst2, EFTRouter{}, Config{Plan: plan2})
	if err != nil {
		t.Fatal(err)
	}
	want := 15 + (10.0 - 5 - 10.0/3)
	if math.Abs(m2.Flows[0]-want) > 1e-12 {
		t.Fatalf("partial-overlap flow = %v, want %v", m2.Flows[0], want)
	}
}

// TestRunFaultyNoopSlowdownsByteIdentical: a plan whose slowdowns all have
// factor 1 is the healthy plan, and must reproduce the fault-free run bit
// for bit — normalization drops the segments before any arithmetic splits
// start + proc.
func TestRunFaultyNoopSlowdownsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		m := 2 + rng.Intn(8)
		n := 1 + rng.Intn(120)
		inst := randomInstance(m, n, rng)
		plan := faults.Empty(m)
		for j := 0; j < m; j++ {
			plan.Slow(j, core.Time(rng.Float64()*5), 5+core.Time(rng.Float64()*50), 1)
		}
		for _, kind := range allRouterKinds {
			seed := rng.Int63()
			ra, rb := routerPair(kind, seed)
			s1, m1, err := Run(inst, ra)
			if err != nil {
				t.Fatalf("trial %d %s: Run: %v", trial, kind, err)
			}
			s2, m2, err := NewArena().Run(inst, rb, Config{Plan: plan})
			if err != nil {
				t.Fatalf("trial %d %s: Arena.Run: %v", trial, kind, err)
			}
			if !reflect.DeepEqual(s1.Machine, s2.Machine) || !reflect.DeepEqual(s1.Start, s2.Start) {
				t.Fatalf("trial %d %s: schedules differ under no-op slowdowns", trial, kind)
			}
			if !reflect.DeepEqual(m1.Flows, m2.Flows) ||
				!reflect.DeepEqual(m1.Busy, m2.Busy) ||
				m1.Makespan != m2.Makespan {
				t.Fatalf("trial %d %s: metrics differ under no-op slowdowns", trial, kind)
			}
		}
	}
}

// TestGraySimMatchesFinishTime: on crash-free gray plans every completion
// equals faults.FinishTime of its (machine, start, proc), exactly, and
// same-machine executions never overlap under the adjusted completions.
func TestGraySimMatchesFinishTime(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 16; trial++ {
		m := 2 + rng.Intn(6)
		n := 1 + rng.Intn(80)
		inst := randomInstance(m, n, rng)
		plan := faults.GenerateGray(m, 20, faults.GrayConfig{MTBF: 5, MTTR: 5}, rng)
		s, fm, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		if fm.DroppedCount() != 0 || fm.TotalRetries() != 0 {
			t.Fatalf("trial %d: gray-only plan caused drops/retries", trial)
		}
		segs := plan.Normalize().ServerSlowdowns()
		comp := make([]core.Time, n)
		perMachine := make([][]int, m)
		for i, task := range inst.Tasks {
			j := s.Machine[i]
			comp[i] = faults.FinishTime(segs[j], s.Start[i], task.Proc)
			// Flows stores end − release, so re-adding release rounds in the
			// last bits; compare with a relative tolerance.
			if got := task.Release + fm.Flows[i]; math.Abs(got-comp[i]) > 1e-9*(1+math.Abs(comp[i])) {
				t.Fatalf("trial %d task %d: completion %v, want FinishTime %v", trial, i, got, comp[i])
			}
			perMachine[j] = append(perMachine[j], i)
		}
		for j, ids := range perMachine {
			sort.Slice(ids, func(a, b int) bool { return s.Start[ids[a]] < s.Start[ids[b]] })
			for x := 1; x < len(ids); x++ {
				if s.Start[ids[x]] < comp[ids[x-1]] {
					t.Fatalf("trial %d M%d: task %d starts at %v before %d completes at %v",
						trial, j+1, ids[x], s.Start[ids[x]], ids[x-1], comp[ids[x-1]])
				}
			}
		}
	}
}
