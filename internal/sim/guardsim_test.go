package sim

import (
	"math"
	"math/rand"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/faults"
	"flowsched/internal/hedge"
	"flowsched/internal/overload"
	"flowsched/internal/resilience"
)

// TestDeadlineAdmissionBound: with DeadlineAdmit{D}, every completed task
// has flow ≤ D + p_max no matter how overloaded the cluster is, and the
// overload shows up as rejections instead.
func TestDeadlineAdmissionBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		m := 2 + rng.Intn(6)
		inst := overloadedInstance(m, 400, 2.0, rng)
		pmax := 0.0
		for _, task := range inst.Tasks {
			pmax = math.Max(pmax, task.Proc)
		}
		d := core.Time(2 + rng.Float64()*8)
		cfg := &overload.Config{Admission: overload.DeadlineAdmit{D: d}}
		for _, kind := range allRouterKinds {
			r, _ := routerPair(kind, rng.Int63())
			_, om, err := NewArena().Run(inst, r, Config{Overload: cfg})
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			if mf := om.AdmittedMaxFlow(); float64(mf) > float64(d)+pmax+1e-9 {
				t.Errorf("trial %d %s: admitted Fmax %v exceeds D+pmax = %v", trial, kind, mf, float64(d)+pmax)
			}
			if om.RejectedCount()+om.ShedCount() == 0 {
				t.Errorf("trial %d %s: 200%% load run admitted everything under deadline %v", trial, kind, d)
			}
		}
	}
}

// TestShedderBoundsQueueAge: with a watermark shedder, no task waits in a
// queue longer than roughly watermark + the head's residual service; the
// shed tasks carry their shed-instant flow and a shed reason.
func TestShedderBoundsQueueAge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, policy := range []overload.ShedPolicy{
		overload.DropNewest, overload.DropOldest, overload.DropRandom, overload.DropLargestStretch,
	} {
		inst := overloadedInstance(4, 400, 1.8, rng)
		wm := core.Time(5)
		cfg := &overload.Config{Shedder: &overload.Shedder{Policy: policy, Watermark: wm, Seed: 5}}
		_, om, err := NewArena().Run(inst, EFTRouter{}, Config{Overload: cfg})
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if om.ShedCount() == 0 {
			t.Fatalf("%v: 180%% load run shed nothing at watermark %v", policy, wm)
		}
		for i := range inst.Tasks {
			if !om.Shed[i] {
				continue
			}
			if om.Reason[i] == "" {
				t.Errorf("%v: shed task %d has no reason", policy, i)
			}
			if om.Flows[i] < 0 {
				t.Errorf("%v: shed task %d has negative flow %v", policy, i, om.Flows[i])
			}
		}
		// A non-trivial share of completed tasks must remain: shedding is a
		// trim, not a purge.
		if om.Goodput() < 0.3 {
			t.Errorf("%v: goodput %v collapsed under shedding", policy, om.Goodput())
		}
	}
}

// TestShedFloorDropsForRetriedHead pins the case where the shedder's head
// floor must fall. X (release 0) crashes on M2 at t = 1 and retries at
// 11.5. The arrival of B at t = 10 scans the empty heads and raises the
// floor to 10, and Y (release 11) heads M2 when X re-queues behind it, so
// X is not a head on entry. Y completes at 14 and X, 14.5 past its
// release, heads M2 with Z1 and Z2 queued behind it. C's arrival at 14.5
// must scan and trim M2 down to the watermark: X runs on, Z1 (the oldest
// queued) is shed, Z2 is re-timed. Were the floor still 10, C would be
// within the watermark of it and skip the scan.
func TestShedFloorDropsForRetriedHead(t *testing.T) {
	m0, m1 := core.ProcSet{0}, core.ProcSet{1}
	inst := core.NewInstance(2, []core.Task{
		{Release: 0, Proc: 2, Set: m1},    // 0: X
		{Release: 10, Proc: 1, Set: m0},   // 1: B
		{Release: 11, Proc: 3, Set: m1},   // 2: Y
		{Release: 12, Proc: 4, Set: m1},   // 3: Z1
		{Release: 12.5, Proc: 2, Set: m1}, // 4: Z2
		{Release: 14.5, Proc: 0.5, Set: m0},
	})
	plan := faults.Empty(2).Down(1, 1, 1.5)
	sh := &overload.Shedder{Policy: overload.DropOldest, Watermark: 5}
	s, om, err := NewArena().Run(inst, EFTRouter{}, Config{
		Plan: plan, Retry: RetryPolicy{MaxAttempts: 3, Backoff: 10.5}, Overload: &overload.Config{Shedder: sh},
	})
	if err != nil {
		t.Fatal(err)
	}
	if om.Attempts[0] != 2 || s.Machine[0] != 1 || s.Start[0] != 14 {
		t.Fatalf("X: %d attempts, on M%d from %v; want 2 attempts, on M2 from 14",
			om.Attempts[0], s.Machine[0]+1, s.Start[0])
	}
	for i, wantShed := range []bool{false, false, false, true, false, false} {
		if om.Shed[i] != wantShed {
			t.Errorf("task %d: shed %v, want %v", i, om.Shed[i], wantShed)
		}
	}
	if om.Reason[3] != "shed-oldest" || om.Flows[3] != 2.5 {
		t.Errorf("Z1: reason %q, flow %v; want %q, 2.5", om.Reason[3], om.Flows[3], "shed-oldest")
	}
	if s.Start[4] != 16 || om.Flows[4] != 5.5 {
		t.Errorf("Z2: start %v, flow %v; want re-timed to start 16, flow 5.5", s.Start[4], om.Flows[4])
	}
}

// TestOutlierEjectionUnderGraySlowdown: one server degraded 8× is ejected,
// traffic routes around it, and it is readmitted after the cooldown once the
// degradation ends.
func TestOutlierEjectionUnderGraySlowdown(t *testing.T) {
	m := 4
	rng := rand.New(rand.NewSource(13))
	inst := overloadedInstance(m, 600, 0.7, rng)
	horizon := inst.Tasks[len(inst.Tasks)-1].Release
	plan := faults.Empty(m).Slow(0, 0, horizon/2, 8)
	cfg := &overload.Config{Ejector: &overload.Ejector{K: 2, Cooldown: 5, MinSamples: 5}}
	_, om, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: plan, Overload: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if om.Ejections == 0 {
		t.Fatal("an 8×-degraded server was never ejected")
	}
	if om.Readmissions == 0 {
		t.Error("the ejected server was never readmitted after recovery")
	}
	if om.DroppedCount() != 0 {
		t.Errorf("%d drops: ejection must be advisory, not a failure mode", om.DroppedCount())
	}
}

// TestGuardBrownoutSignal: pushing far past a tiny configured capacity
// raises the brownout signal.
func TestGuardBrownoutSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	inst := overloadedInstance(4, 300, 1.5, rng)
	cfg := &overload.Config{Guard: overload.NewEstimatorCapacity(1)}
	_, om, err := NewArena().Run(inst, EFTRouter{}, Config{Overload: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if om.Brownouts == 0 {
		t.Error("600% of capacity never raised the brownout signal")
	}
}

// TestRunGuardedRejectsBadConfig: a malformed config is a caller error, not
// a panic deep in the run.
func TestRunGuardedRejectsBadConfig(t *testing.T) {
	inst := randomInstance(3, 10, rand.New(rand.NewSource(1)))
	bad := []*overload.Config{
		{Admission: overload.DeadlineAdmit{D: -1}},
		{Admission: overload.QueueBound{}},
		{Shedder: &overload.Shedder{Policy: overload.ShedPolicy(99), Watermark: 1}},
		{Shedder: &overload.Shedder{Policy: overload.DropOldest, Watermark: -2}},
		{Ejector: &overload.Ejector{K: 0.5}},
		{Guard: overload.NewEstimatorCapacity(-3)},
	}
	for i, cfg := range bad {
		if _, _, err := NewArena().Run(inst, EFTRouter{}, Config{Overload: cfg}); err == nil {
			t.Errorf("bad config %d was accepted", i)
		}
	}
}

// sameTimes compares two time slices treating NaN as equal to NaN (dropped
// tasks carry NaN sentinels).
func sameTimes(a, b []core.Time) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(float64(a[i])) && math.IsNaN(float64(b[i]))) {
			return false
		}
	}
	return true
}

// overloadedInstance draws unit-ish tasks at `load`×m arrival rate with
// random replication-style processing sets — the overload test workload.
func overloadedInstance(m, n int, load float64, rng *rand.Rand) *core.Instance {
	tasks := make([]core.Task, n)
	t := 0.0
	for i := range tasks {
		t += rng.ExpFloat64() / (load * float64(m))
		var set core.ProcSet
		if rng.Intn(4) > 0 { // 3-replica ring interval; sometimes unrestricted
			set = core.MustRingInterval(rng.Intn(m), min(3, m), m)
		}
		tasks[i] = core.Task{Release: t, Proc: 0.5 + rng.Float64(), Set: set, Key: i % m}
	}
	return core.NewInstance(m, tasks)
}

// FuzzGuardedDisposition fuzzes admission, shedding and deadline
// enforcement against the disposition invariants: every task is completed,
// dropped, rejected or shed — exactly one of the four — and completed flow
// never exceeds the admission budget plus p_max. Bit 7 of maxQ, which the
// mode decoding ignores, also arms a delay hedge and circuit breakers, so
// hedge copies reach queue heads, trims and the breaker-filtered candidate
// rule.
func FuzzGuardedDisposition(f *testing.F) {
	f.Add(int64(1), uint8(4), uint16(60), uint8(0), 5.0, uint8(3), 4.0)
	f.Add(int64(2), uint8(3), uint16(80), uint8(1), 8.0, uint8(0), 0.0)
	f.Add(int64(3), uint8(6), uint16(120), uint8(2), 0.0, uint8(2), 3.0)
	f.Add(int64(4), uint8(2), uint16(40), uint8(3), 2.0, uint8(5), 1.0)
	f.Add(int64(5), uint8(5), uint16(150), uint8(3), 0.0, uint8(0x80|2), 3.0)
	f.Fuzz(func(t *testing.T, seed int64, m uint8, n uint16, mode uint8, deadline float64, maxQ uint8, watermark float64) {
		mm := 1 + int(m)%10
		nn := 1 + int(n)%200
		rng := rand.New(rand.NewSource(seed))
		inst := overloadedInstance(mm, nn, 0.5+rng.Float64()*1.5, rng)
		pmax := 0.0
		for _, task := range inst.Tasks {
			pmax = math.Max(pmax, task.Proc)
		}

		cfg := &overload.Config{}
		var budget core.Time
		if !(deadline > 0 && deadline < 1e6) {
			deadline = 0
		}
		if !(watermark > 0 && watermark < 1e6) {
			watermark = 0
		}
		switch mode % 4 {
		case 0:
			cfg.Admission = overload.AdmitAll{}
		case 1:
			if deadline == 0 {
				deadline = 1
			}
			cfg.Admission = overload.DeadlineAdmit{D: core.Time(deadline)}
			budget = core.Time(deadline)
		case 2:
			cfg.Admission = overload.QueueBound{MaxQueue: 1 + int(maxQ)%8}
		case 3:
			if watermark == 0 {
				watermark = 1
			}
			cfg.Shedder = &overload.Shedder{
				Policy:    overload.ShedPolicy(int(maxQ) % 4),
				Watermark: core.Time(watermark),
				Seed:      seed,
			}
		}
		plan := faults.Generate(mm, inst.Tasks[nn-1].Release+1, 30, 5, rng)
		r, _ := routerPair(allRouterKinds[int(seed%int64(len(allRouterKinds))+int64(len(allRouterKinds)))%len(allRouterKinds)], seed)
		run := Config{Plan: plan, Retry: RetryPolicy{MaxAttempts: 3}, Overload: cfg}
		if maxQ&0x80 != 0 {
			run.Hedge = &hedge.Config{Delay: 1, CancelRunning: maxQ&0x40 != 0}
			run.Resilience = &resilience.Config{Breaker: &resilience.BreakerConfig{
				Window: 4, FailureThreshold: 0.5, Cooldown: 3, HalfOpenProbes: 1, SlowFactor: 2}}
		}
		_, om, err := NewArena().Run(inst, r, run)
		if err != nil {
			t.Fatalf("Arena.Run: %v", err)
		}

		for i := range inst.Tasks {
			kinds := 0
			for _, b := range [...]bool{om.Dropped[i], om.Rejected[i], om.Shed[i]} {
				if b {
					kinds++
				}
			}
			if kinds > 1 {
				t.Errorf("task %d carries %d dispositions", i, kinds)
			}
			if kinds == 0 {
				// Completed: flow is non-negative and bounded by the budget.
				if om.Flows[i] < 0 {
					t.Errorf("completed task %d has negative flow %v", i, om.Flows[i])
				}
				if budget > 0 && float64(om.Flows[i]) > float64(budget)+pmax+1e-9 {
					t.Errorf("completed task %d flow %v exceeds budget %v + pmax %v", i, om.Flows[i], budget, pmax)
				}
			}
			if om.Rejected[i] && om.Flows[i] != 0 {
				t.Errorf("rejected task %d carries flow %v", i, om.Flows[i])
			}
		}
		if got := om.CompletedCount() + om.DroppedCount() + om.RejectedCount() + om.ShedCount(); got != nn {
			t.Errorf("dispositions sum to %d for %d tasks", got, nn)
		}
	})
}
