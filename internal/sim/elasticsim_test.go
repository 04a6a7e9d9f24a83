package sim

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"flowsched/internal/audit"
	"flowsched/internal/core"
	"flowsched/internal/elastic"
	"flowsched/internal/faults"
	"flowsched/internal/overload"
)

// auditElastic runs the full invariant audit on an elastic run, membership
// checks included (completions are reconstructed as release + flow for
// completed tasks).
func auditElastic(t *testing.T, inst *core.Instance, s *core.Schedule, em *ElasticMetrics, plan *faults.Plan) {
	t.Helper()
	comps := make([]core.Time, inst.N())
	for i := range comps {
		comps[i] = inst.Tasks[i].Release + em.Flows[i]
	}
	opts := audit.Options{
		Plan:           plan,
		Completions:    comps,
		Dropped:        em.Dropped,
		SkipLowerBound: true,
	}
	if em.Rejected != nil || em.Shed != nil {
		opts.Overload = &audit.OverloadInfo{Rejected: em.Rejected, Shed: em.Shed}
	}
	if em.Membership != nil {
		opts.Membership = &audit.MembershipInfo{Membership: em.Membership, Dispatched: em.Dispatched}
	}
	if r := audit.Audit(inst, s, opts); !r.Ok() {
		t.Fatalf("audit: %v", r)
	}
}

// TestRunElasticFullMembershipMatchesStatic: an elastic config that starts at
// full capacity and never scales routes restricted ring-interval work exactly
// like the static engine — the effective-set walk at full membership is the
// identity on circular intervals.
func TestRunElasticFullMembershipMatchesStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		m := 3 + rng.Intn(6)
		n := 20 + rng.Intn(100)
		ts := make([]core.Task, n)
		at := 0.0
		for i := range ts {
			at += rng.ExpFloat64() / float64(m)
			k := 1 + rng.Intn(m)
			ts[i] = core.Task{Release: at, Proc: 0.5 + rng.Float64(), Set: core.MustRingInterval(rng.Intn(m), k, m), Key: i % m}
		}
		inst := core.NewInstance(m, ts)
		s1, m1, err := NewArena().Run(inst, EFTRouter{}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		s2, em, err := NewArena().Run(inst, EFTRouter{}, Config{Elastic: &elastic.Config{}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s1.Machine, s2.Machine) || !sameTimes(s1.Start, s2.Start) {
			t.Fatalf("trial %d: full-membership elastic schedule differs from static", trial)
		}
		if !sameTimes(m1.Flows, em.Flows) {
			t.Fatalf("trial %d: full-membership elastic flows differ from static", trial)
		}
		if em.Membership == nil || em.Membership.Initial != m || len(em.Membership.Changes) != 0 {
			t.Fatalf("trial %d: unexpected membership log %+v", trial, em.Membership)
		}
		auditElastic(t, inst, s2, em, nil)
	}
}

// TestScaleDownDrainNoTaskLost: a scripted deep scale-down in the middle of a
// busy run hands every queued task off to the survivors; nothing is lost,
// every task completes, and the audit membership invariants hold.
func TestScaleDownDrainNoTaskLost(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := 8
	inst := overloadedInstance(m, 300, 0.9, rng)
	mid := inst.Tasks[150].Release
	ecfg := &elastic.Config{Script: []elastic.Event{{At: mid, Delta: -5}}, Min: 2}
	s, em, err := NewArena().Run(inst, EFTRouter{}, Config{Elastic: ecfg})
	if err != nil {
		t.Fatal(err)
	}
	if em.ScaleDowns != 5 {
		t.Fatalf("scripted −5 performed %d scale-downs", em.ScaleDowns)
	}
	if em.Membership.Final() != 3 {
		t.Fatalf("final membership %d, want 3", em.Membership.Final())
	}
	if em.DroppedCount() != 0 {
		t.Fatalf("%d tasks dropped: drain lost work", em.DroppedCount())
	}
	for i := range inst.Tasks {
		if s.Machine[i] < 0 {
			t.Fatalf("task %d left unassigned after drain", i)
		}
	}
	if em.Handoffs == 0 {
		t.Error("a mid-run 5-machine drain under 90% load moved no queued tasks")
	}
	auditElastic(t, inst, s, em, nil)
}

// TestScaleDownSoleMemberVictim: the drained machine is the sole member of a
// task's static set (k = 1). The effective-set walk must hand the task to the
// next active machine instead of stranding or losing it.
func TestScaleDownSoleMemberVictim(t *testing.T) {
	m := 3
	inst := core.NewInstance(m, []core.Task{
		// Pin three tasks to slot 2 (the future victim); the first is running
		// at the drain instant, the rest are queued behind it.
		{Release: 0, Proc: 10, Set: core.NewProcSet(2)},
		{Release: 1, Proc: 2, Set: core.NewProcSet(2)},
		{Release: 2, Proc: 2, Set: core.NewProcSet(2)},
		// A post-drain arrival whose set names only the drained slot.
		{Release: 6, Proc: 1, Set: core.NewProcSet(2)},
	})
	ecfg := &elastic.Config{Script: []elastic.Event{{At: 5, Delta: -1}}}
	s, em, err := NewArena().Run(inst, EFTRouter{}, Config{Elastic: ecfg})
	if err != nil {
		t.Fatal(err)
	}
	if s.Machine[0] != 2 {
		t.Fatalf("running head moved to M%d; it must finish in place", s.Machine[0]+1)
	}
	if em.Handoffs != 2 {
		t.Fatalf("expected 2 handoffs, got %d", em.Handoffs)
	}
	for i := 1; i < 4; i++ {
		if s.Machine[i] == 2 || s.Machine[i] < 0 {
			t.Fatalf("task %d on M%d: should have walked to a survivor", i, s.Machine[i]+1)
		}
	}
	if em.DroppedCount() != 0 {
		t.Fatalf("%d drops: sole-member drain lost work", em.DroppedCount())
	}
	auditElastic(t, inst, s, em, nil)
}

// TestScaleDownHandoffTargetDown: the drain's only surviving target is itself
// inside an outage at the handoff instant. The handed-off task parks and
// completes after the recovery — drained work survives even a racing fault.
func TestScaleDownHandoffTargetDown(t *testing.T) {
	m := 2
	inst := core.NewInstance(m, []core.Task{
		{Release: 0, Proc: 10, Set: core.NewProcSet(1)}, // running on 1 at drain
		{Release: 1, Proc: 2, Set: core.NewProcSet(1)},  // queued on 1, handed to 0
	})
	plan := faults.Empty(m).Down(0, 2, 20) // the handoff target is down
	ecfg := &elastic.Config{Script: []elastic.Event{{At: 5, Delta: -1}}}
	s, em, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: plan, Elastic: ecfg})
	if err != nil {
		t.Fatal(err)
	}
	if em.Handoffs != 1 {
		t.Fatalf("expected 1 handoff, got %d", em.Handoffs)
	}
	if !em.Parked[1] {
		t.Error("handed-off task with its target down should have parked")
	}
	if em.DroppedCount() != 0 {
		t.Fatalf("%d drops: parked handoff was lost", em.DroppedCount())
	}
	if s.Machine[1] != 0 || s.Start[1] < 20 {
		t.Fatalf("task 1 ran on M%d at %v; want M1 after its recovery at t=20", s.Machine[1]+1, s.Start[1])
	}
	auditElastic(t, inst, s, em, plan)
}

// TestScaleDownRacingZoneOutage: a scripted scale-down at the very instant a
// correlated zone outage fires. Drain and failover compose: no task is lost,
// dispositions stay exactly-once and the membership audit holds.
func TestScaleDownRacingZoneOutage(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m := 6
	inst := overloadedInstance(m, 200, 0.8, rng)
	mid := inst.Tasks[100].Release
	// Zone = upper half of the ring; the victim of the scale-down (highest
	// active slot) sits inside the failing zone.
	plan := faults.Empty(m)
	for j := 3; j < 6; j++ {
		plan.Down(j, mid, mid+15)
	}
	ecfg := &elastic.Config{Script: []elastic.Event{{At: mid, Delta: -2}}, Min: 2}
	s, em, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: plan, Elastic: ecfg})
	if err != nil {
		t.Fatal(err)
	}
	if em.ScaleDowns != 2 {
		t.Fatalf("scripted −2 performed %d scale-downs", em.ScaleDowns)
	}
	if em.DroppedCount() != 0 {
		t.Fatalf("%d drops under zero-timeout policy: work was lost", em.DroppedCount())
	}
	for i := range inst.Tasks {
		if s.Machine[i] < 0 {
			t.Fatalf("task %d unassigned after drain+outage race", i)
		}
	}
	auditElastic(t, inst, s, em, plan)
}

// TestScaleUpWarmUpDelay: a joiner announced at t accepts no work before
// t + WarmUp, and the membership log records the join at the warm-up end.
func TestScaleUpWarmUpDelay(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	m := 4
	inst := overloadedInstance(m, 200, 1.2, rng)
	mid := inst.Tasks[60].Release
	warm := core.Time(3)
	ecfg := &elastic.Config{Initial: 2, WarmUp: warm,
		Script: []elastic.Event{{At: mid, Delta: 2}}}
	s, em, err := NewArena().Run(inst, EFTRouter{}, Config{Elastic: ecfg})
	if err != nil {
		t.Fatal(err)
	}
	if em.ScaleUps != 2 {
		t.Fatalf("scripted +2 performed %d scale-ups", em.ScaleUps)
	}
	if em.WarmUpTime != 2*warm {
		t.Fatalf("warm-up time %v, want %v", em.WarmUpTime, 2*warm)
	}
	joined := map[int]core.Time{}
	for _, ch := range em.Membership.Changes {
		if !ch.Join {
			t.Fatalf("unexpected drain in a scale-up-only run: %+v", ch)
		}
		if ch.At != mid+warm {
			t.Fatalf("join at %v, want %v", ch.At, mid+warm)
		}
		joined[ch.Machine] = ch.At
	}
	for i := range inst.Tasks {
		if at, ok := joined[s.Machine[i]]; ok && s.Start[i] < at {
			t.Fatalf("task %d starts at %v on joiner M%d before its join at %v",
				i, s.Start[i], s.Machine[i]+1, at)
		}
	}
	auditElastic(t, inst, s, em, nil)
}

// TestAutoscalerScalesUpUnderBurst: a sustained overload burst against a
// small initial membership makes the estimator-driven autoscaler grow the
// ring; the run stays audit-clean and machine-hours stay below the
// static-peak cost.
func TestAutoscalerScalesUpUnderBurst(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	m := 8
	inst := overloadedInstance(m, 600, 0.9, rng) // ~0.9·m offered vs 2 initial machines
	ecfg := &elastic.Config{
		Initial: 2,
		WarmUp:  0.5,
		Auto: &elastic.Autoscaler{
			Guard:           overload.NewEstimatorCapacity(float64(m)),
			MachineCapacity: 1,
			Sustain:         0.5,
			Cooldown:        1,
		},
	}
	s, em, err := NewArena().Run(inst, EFTRouter{}, Config{Elastic: ecfg})
	if err != nil {
		t.Fatal(err)
	}
	if em.ScaleUps == 0 {
		t.Fatal("450% overload of the initial membership never scaled up")
	}
	if em.Membership.Final() <= 2 {
		t.Fatalf("final membership %d did not grow", em.Membership.Final())
	}
	if hours := em.MachineHours; hours >= core.Time(m)*em.Horizon {
		t.Fatalf("autoscaled machine-hours %v not below static-peak %v", hours, core.Time(m)*em.Horizon)
	}
	auditElastic(t, inst, s, em, nil)
}

// TestSlowdownOnJoiningMachine is the satellite-2 regression: a gray-failure
// slowdown scripted (via faults.Plan.Extend) for a slot that only joins
// mid-run must apply to the joiner's executions — slot ids are stable, so the
// audit's slowdown-adjusted completion check passes.
func TestSlowdownOnJoiningMachine(t *testing.T) {
	m := 3
	small := faults.Empty(2).Slow(1, 0, 100, 4) // authored for a 2-slot cluster
	plan, err := small.Extend(m)
	if err != nil {
		t.Fatal(err)
	}
	plan.Slow(2, 0, 100, 2) // the joiner runs at half speed the whole run
	inst := core.NewInstance(m, []core.Task{
		{Release: 0, Proc: 4, Set: core.NewProcSet(0)},
		{Release: 0.5, Proc: 4, Set: core.NewProcSet(0, 1, 2)},
		{Release: 6, Proc: 4, Set: core.NewProcSet(2)},
	})
	ecfg := &elastic.Config{Initial: 2, WarmUp: 1,
		Script: []elastic.Event{{At: 4, Delta: 1}}}
	s, em, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: plan, Elastic: ecfg})
	if err != nil {
		t.Fatal(err)
	}
	if s.Machine[2] != 2 {
		t.Fatalf("task 2 ran on M%d, want the joiner M3", s.Machine[2]+1)
	}
	// The joiner is slowed 2×: proc 4 occupies 8 time units.
	if got := em.Flows[2]; math.Abs(float64(got-(s.Start[2]+8-inst.Tasks[2].Release))) > 1e-9 {
		t.Fatalf("flow %v on the slowed joiner, want start %v + 8 − release %v", got, s.Start[2], inst.Tasks[2].Release)
	}
	auditElastic(t, inst, s, em, plan)
}

// TestRunElasticRejectsUndersizedPlan: a plan authored for fewer slots than
// the instance is a caller error pointing at faults.Plan.Extend, and Extend
// itself refuses to shrink.
func TestRunElasticRejectsUndersizedPlan(t *testing.T) {
	inst := randomInstance(4, 10, rand.New(rand.NewSource(1)))
	plan := faults.Empty(2).Down(1, 0, 5)
	_, _, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: plan, Elastic: &elastic.Config{}})
	if err == nil || !strings.Contains(err.Error(), "Extend") {
		t.Fatalf("undersized plan error should mention faults.Plan.Extend, got %v", err)
	}
	if _, err := plan.Extend(1); err == nil {
		t.Error("Extend shrank a plan below its authored size")
	}
	grown, err := plan.Extend(4)
	if err != nil || grown.M != 4 || len(grown.Outages) != 1 {
		t.Fatalf("Extend(4) = %+v, %v", grown, err)
	}
}

// TestRunElasticRejectsBadConfig: malformed elastic configs are caller
// errors, not panics deep in the run.
func TestRunElasticRejectsBadConfig(t *testing.T) {
	inst := randomInstance(3, 10, rand.New(rand.NewSource(1)))
	bad := []*elastic.Config{
		{Initial: 5},
		{Min: 3, Max: 2},
		{Initial: 1, Min: 2},
		{WarmUp: -1},
		{Script: []elastic.Event{{At: 1, Delta: 0}}},
		{Script: []elastic.Event{{At: -1, Delta: 1}}},
		{Auto: &elastic.Autoscaler{}},
		{Auto: &elastic.Autoscaler{Guard: overload.NewEstimatorCapacity(4), UpUtil: 0.3, DownUtil: 0.6}},
	}
	for i, ecfg := range bad {
		if _, _, err := NewArena().Run(inst, EFTRouter{}, Config{Elastic: ecfg}); err == nil {
			t.Errorf("bad elastic config %d was accepted", i)
		}
	}
}

// FuzzElasticMembership fuzzes scripted churn (random scale events, warm-up
// delays, initial membership) against the no-task-lost contract: every task
// is completed, dropped, rejected or shed — exactly once — and the full
// audit, membership invariants included, stays clean.
func FuzzElasticMembership(f *testing.F) {
	f.Add(int64(1), uint8(6), uint16(120), uint8(2), 0.5, int8(3), int8(-2))
	f.Add(int64(2), uint8(4), uint16(80), uint8(1), 0.0, int8(-1), int8(2))
	f.Add(int64(3), uint8(8), uint16(200), uint8(5), 2.0, int8(-4), int8(4))
	f.Add(int64(4), uint8(3), uint16(50), uint8(3), 1.0, int8(1), int8(1))
	f.Fuzz(func(t *testing.T, seed int64, m uint8, n uint16, initial uint8, warm float64, d1, d2 int8) {
		mm := 2 + int(m)%10
		nn := 1 + int(n)%300
		if !(warm >= 0 && warm < 100) {
			warm = 0
		}
		rng := rand.New(rand.NewSource(seed))
		inst := overloadedInstance(mm, nn, 0.5+rng.Float64(), rng)
		horizon := inst.Tasks[nn-1].Release + 1
		var script []elastic.Event
		for i, d := range []int{int(d1), int(d2)} {
			if d == 0 {
				continue
			}
			at := horizon * core.Time(i+1) / 3
			script = append(script, elastic.Event{At: at, Delta: d})
		}
		ecfg := &elastic.Config{
			Initial: 1 + int(initial)%mm,
			WarmUp:  core.Time(warm),
			Script:  script,
		}
		plan := faults.Generate(mm, horizon, 40, 4, rng)
		s, em, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: plan, Retry: RetryPolicy{MaxAttempts: 4}, Elastic: ecfg})
		if err != nil {
			t.Fatalf("Arena.Run: %v", err)
		}
		if got := em.CompletedCount() + em.DroppedCount(); got != nn {
			t.Errorf("dispositions sum to %d for %d tasks", got, nn)
		}
		comps := make([]core.Time, nn)
		for i := range comps {
			comps[i] = inst.Tasks[i].Release + em.Flows[i]
		}
		r := audit.Audit(inst, s, audit.Options{
			Plan:           plan,
			Completions:    comps,
			Dropped:        em.Dropped,
			SkipLowerBound: true,
			Membership:     &audit.MembershipInfo{Membership: em.Membership, Dispatched: em.Dispatched},
		})
		if !r.Ok() {
			t.Errorf("audit: %v", r)
		}
	})
}
