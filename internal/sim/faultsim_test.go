package sim

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/faults"
	"flowsched/internal/sched"
)

// randomInstance draws an instance with Poisson-ish arrivals, mixed
// processing times and random non-empty processing sets.
func randomInstance(m, n int, rng *rand.Rand) *core.Instance {
	tasks := make([]core.Task, n)
	t := 0.0
	for i := range tasks {
		t += rng.ExpFloat64() / float64(m)
		proc := 0.5 + rng.Float64()
		var set core.ProcSet
		switch rng.Intn(3) {
		case 0: // unrestricted
		case 1: // ring interval
			set = core.MustRingInterval(rng.Intn(m), 1+rng.Intn(m), m)
		default: // random subset
			k := 1 + rng.Intn(m)
			perm := rng.Perm(m)[:k]
			set = core.NewProcSet(perm...)
		}
		tasks[i] = core.Task{Release: t, Proc: proc, Set: set, Key: i % m}
	}
	return core.NewInstance(m, tasks)
}

// routerPair builds two independent but identically seeded routers of the
// named kind, so Run and Arena.Run consume identical random streams.
func routerPair(kind string, seed int64) (Router, Router) {
	mk := func() Router {
		switch kind {
		case "EFT-Min":
			return EFTRouter{}
		case "EFT-Max":
			return EFTRouter{Tie: sched.MaxTie{}}
		case "JSQ":
			return JSQRouter{}
		case "Random":
			return &RandomRouter{Rng: rand.New(rand.NewSource(seed))}
		case "Po2":
			return PowerOfTwoRouter{Rng: rand.New(rand.NewSource(seed))}
		case "RR":
			return &RoundRobinRouter{}
		case "EFT-noisy":
			return &NoisyEFTRouter{RelErr: 0.3, Rng: rand.New(rand.NewSource(seed))}
		}
		panic("unknown router kind " + kind)
	}
	return mk(), mk()
}

var allRouterKinds = []string{"EFT-Min", "EFT-Max", "JSQ", "Random", "Po2", "RR", "EFT-noisy"}

// TestRunFaultyEmptyPlanEquivalence is the zero-fault property: for every
// bundled router and ≥20 random instances, the engine under the empty plan
// (Arena.Run with a zero Config but for the plan) produces byte-identical
// schedules and metrics to Run.
func TestRunFaultyEmptyPlanEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 24; trial++ {
		m := 2 + rng.Intn(8)
		n := 1 + rng.Intn(120)
		inst := randomInstance(m, n, rng)
		for _, kind := range allRouterKinds {
			seed := rng.Int63()
			ra, rb := routerPair(kind, seed)
			s1, m1, err := Run(inst, ra)
			if err != nil {
				t.Fatalf("trial %d %s: Run: %v", trial, kind, err)
			}
			for _, plan := range []*faults.Plan{nil, faults.Empty(m)} {
				s2, m2, err := NewArena().Run(inst, rb, Config{Plan: plan})
				if err != nil {
					t.Fatalf("trial %d %s: Arena.Run: %v", trial, kind, err)
				}
				if !reflect.DeepEqual(s1.Machine, s2.Machine) || !reflect.DeepEqual(s1.Start, s2.Start) {
					t.Fatalf("trial %d %s: schedules differ", trial, kind)
				}
				if !reflect.DeepEqual(m1.Flows, m2.Flows) ||
					!reflect.DeepEqual(m1.Busy, m2.Busy) ||
					m1.Makespan != m2.Makespan {
					t.Fatalf("trial %d %s: metrics differ", trial, kind)
				}
				if m2.DroppedCount() != 0 || m2.ParkedCount() != 0 || m2.TotalRetries() != 0 {
					t.Fatalf("trial %d %s: healthy run reported faults", trial, kind)
				}
				if m2.Availability() != 1 {
					t.Fatalf("trial %d %s: healthy availability %v", trial, kind, m2.Availability())
				}
				// Reset rb's random stream for the second plan variant.
				_, rb = routerPair(kind, seed)
			}
		}
	}
}

// TestFailoverToLiveReplica: the chosen server fails mid-service and the
// request restarts on the other replica from scratch.
func TestFailoverToLiveReplica(t *testing.T) {
	inst := core.NewInstance(2, []core.Task{
		{Release: 0, Proc: 10, Set: core.NewProcSet(0, 1)},
	})
	plan := faults.Empty(2).Down(0, 5, 100)
	s, m, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if s.Machine[0] != 1 {
		t.Fatalf("task should have failed over to M2, got M%d", s.Machine[0]+1)
	}
	if s.Start[0] != 5 {
		t.Fatalf("failover start = %v, want 5", s.Start[0])
	}
	if m.Flows[0] != 15 {
		t.Fatalf("flow = %v, want 15 (5 wasted + 10 redone)", m.Flows[0])
	}
	if m.Attempts[0] != 2 || m.TotalRetries() != 1 {
		t.Fatalf("attempts = %v, want 2", m.Attempts[0])
	}
	if m.Busy[0] != 5 { // partial work until the crash
		t.Fatalf("Busy[0] = %v, want 5", m.Busy[0])
	}
	if m.Busy[1] != 10 {
		t.Fatalf("Busy[1] = %v, want 10", m.Busy[1])
	}
	if m.Makespan != 15 {
		t.Fatalf("makespan = %v, want 15", m.Makespan)
	}
	if m.Downtime[0] != 95 { // horizon is plan end (100) here
		t.Fatalf("downtime[0] = %v, want 95", m.Downtime[0])
	}
}

// TestArrivalDuringOutageAvoidsDeadServer: the router never sees the dead
// replica, so EFT lands every request on the live one.
func TestArrivalDuringOutageAvoidsDeadServer(t *testing.T) {
	inst := core.NewInstance(2, []core.Task{
		{Release: 1, Proc: 1, Set: core.NewProcSet(0, 1)},
		{Release: 2, Proc: 1, Set: core.NewProcSet(0, 1)},
	})
	plan := faults.Empty(2).Down(0, 0, 50)
	s, m, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Machine {
		if s.Machine[i] != 1 {
			t.Fatalf("task %d routed to dead server", i)
		}
	}
	if m.TotalRetries() != 0 {
		t.Fatal("no retries expected: requests never touched the dead server")
	}
}

// TestParkedUntilRecovery: a request whose whole set is down waits for the
// first replica to come back.
func TestParkedUntilRecovery(t *testing.T) {
	inst := core.NewInstance(3, []core.Task{
		{Release: 2, Proc: 4, Set: core.NewProcSet(0, 1)},
	})
	plan := faults.Empty(3).Down(0, 0, 10).Down(1, 0, 20)
	s, m, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Parked[0] || m.ParkedCount() != 1 {
		t.Fatal("request should have been parked")
	}
	if s.Machine[0] != 0 || s.Start[0] != 10 {
		t.Fatalf("parked request should start on M1 at its recovery (got M%d at %v)",
			s.Machine[0]+1, s.Start[0])
	}
	if m.Flows[0] != 12 { // waited 2..10, served 10..14
		t.Fatalf("flow = %v, want 12", m.Flows[0])
	}
	if m.Dropped[0] {
		t.Fatal("parked request should not be dropped")
	}
}

// TestDropAfterMaxAttempts: two successive crashes exhaust a 2-attempt
// budget.
func TestDropAfterMaxAttempts(t *testing.T) {
	inst := core.NewInstance(2, []core.Task{
		{Release: 0, Proc: 10, Set: core.NewProcSet(0, 1)},
	})
	plan := faults.Empty(2).Down(0, 2, 100).Down(1, 6, 100)
	s, m, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: plan, Retry: RetryPolicy{MaxAttempts: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Dropped[0] || m.DroppedCount() != 1 || m.DropRate() != 1 {
		t.Fatal("request should have been dropped after 2 attempts")
	}
	if m.Flows[0] != 6 { // gave up at the second crash
		t.Fatalf("drop latency = %v, want 6", m.Flows[0])
	}
	if s.Machine[0] != -1 || !math.IsNaN(s.Start[0]) {
		t.Fatal("dropped request should be unassigned in the schedule")
	}
	if m.Attempts[0] != 2 {
		t.Fatalf("attempts = %d, want 2", m.Attempts[0])
	}
}

// TestBackoffDelaysRetry: with base backoff 3 the failover dispatch happens
// 3 time units after the crash.
func TestBackoffDelaysRetry(t *testing.T) {
	inst := core.NewInstance(2, []core.Task{
		{Release: 0, Proc: 10, Set: core.NewProcSet(0, 1)},
	})
	plan := faults.Empty(2).Down(0, 5, 100)
	s, m, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: plan, Retry: RetryPolicy{Backoff: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Machine[0] != 1 || s.Start[0] != 8 {
		t.Fatalf("retry should start on M2 at 8 (crash 5 + backoff 3), got M%d at %v",
			s.Machine[0]+1, s.Start[0])
	}
	if m.Flows[0] != 18 {
		t.Fatalf("flow = %v, want 18", m.Flows[0])
	}
}

// TestExponentialBackoff: delays double per attempt.
func TestExponentialBackoff(t *testing.T) {
	p := RetryPolicy{Backoff: 2, BackoffFactor: 2}
	for attempts, want := range map[int]core.Time{1: 2, 2: 4, 3: 8} {
		if got := p.delay(attempts); got != want {
			t.Errorf("delay(%d) = %v, want %v", attempts, got, want)
		}
	}
	if got := (RetryPolicy{}).delay(5); got != 0 {
		t.Errorf("zero policy delay = %v, want 0", got)
	}
}

// TestTimeoutDropsOldRequests: a crash at age 5 with timeout 4 drops the
// request instead of retrying.
func TestTimeoutDropsOldRequests(t *testing.T) {
	inst := core.NewInstance(2, []core.Task{
		{Release: 0, Proc: 10, Set: core.NewProcSet(0, 1)},
	})
	plan := faults.Empty(2).Down(0, 5, 100)
	_, m, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: plan, Retry: RetryPolicy{Timeout: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Dropped[0] {
		t.Fatal("request older than the timeout should be dropped at failover")
	}
	// With a generous timeout it survives.
	_, m, err = NewArena().Run(inst, EFTRouter{}, Config{Plan: plan, Retry: RetryPolicy{Timeout: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Dropped[0] {
		t.Fatal("request within the timeout should fail over")
	}
}

// TestQueuedRequestsRequeuedOnCrash: a crash loses the whole local queue,
// not just the running request.
func TestQueuedRequestsRequeuedOnCrash(t *testing.T) {
	inst := core.NewInstance(2, []core.Task{
		{Release: 0, Proc: 4, Set: core.NewProcSet(0)},
		{Release: 0, Proc: 4, Set: core.NewProcSet(0, 1)},
		{Release: 0, Proc: 4, Set: core.NewProcSet(0, 1)},
	})
	// EFT sends task 0 to M1 (pinned), task 1 to M2, task 2 to M1 (queue
	// 4 vs 4, Min tie) — so M1 holds tasks 0 (running) and 2 (queued).
	plan := faults.Empty(2).Down(0, 1, 100)
	s, m, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Parked[0] {
		t.Fatal("pinned task 0 should park when its only server dies")
	}
	if s.Machine[2] != 1 {
		t.Fatal("queued task 2 should fail over to M2")
	}
	if m.Attempts[2] != 2 {
		t.Fatalf("task 2 attempts = %d, want 2", m.Attempts[2])
	}
	// M2's queue after the crash: task 1 [0,4), then task 2 [4,8).
	if s.Start[2] != 4 || m.Flows[2] != 8 {
		t.Fatalf("task 2 start/flow = %v/%v, want 4/8", s.Start[2], m.Flows[2])
	}
	// Task 0 parks until M1 recovers at 100.
	if s.Start[0] != 100 || m.Flows[0] != 104 {
		t.Fatalf("task 0 start/flow = %v/%v, want 100/104", s.Start[0], m.Flows[0])
	}
}

// TestRecoverySpikeMaxFlow: only requests released in outage/recovery
// windows count toward the spike.
func TestRecoverySpikeMaxFlow(t *testing.T) {
	inst := core.NewInstance(2, []core.Task{
		{Release: 0, Proc: 1, Set: core.NewProcSet(0, 1)},   // pre-outage
		{Release: 11, Proc: 10, Set: core.NewProcSet(0, 1)}, // during outage
		{Release: 300, Proc: 1, Set: core.NewProcSet(0, 1)}, // long after
	})
	plan := faults.Empty(2).Down(0, 10, 20).Down(1, 10, 20)
	_, m, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	// Task 1 parks until t=20 and completes at 30: flow 19.
	if got := m.RecoverySpikeMaxFlow(5); got != 19 {
		t.Fatalf("spike max flow = %v, want 19", got)
	}
	// A window of 0 still covers releases strictly inside the outage.
	if got := m.RecoverySpikeMaxFlow(0); got != 19 {
		t.Fatalf("spike max flow (window 0) = %v, want 19", got)
	}
	if mf := m.MaxFlow(); mf != 19 {
		t.Fatalf("max flow = %v, want 19", mf)
	}
}

// TestRunFaultyRejects: invalid plans, mismatched m, bad routers.
func TestRunFaultyRejects(t *testing.T) {
	inst := core.NewInstance(2, []core.Task{{Release: 0, Proc: 1}})
	if _, _, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: faults.Empty(3)}); err == nil {
		t.Error("plan/instance m mismatch accepted")
	}
	bad := faults.Empty(2).Down(5, 0, 1)
	if _, _, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: bad}); err == nil {
		t.Error("invalid plan accepted")
	}
	if _, _, err := NewArena().Run(inst, stuckRouter{}, Config{Plan: faults.Empty(2).Down(0, 0, 1)}); err == nil {
		t.Error("router picking a dead/ineligible server accepted")
	}
}

// stuckRouter always answers server 0, even when it is dead.
type stuckRouter struct{}

func (stuckRouter) Name() string               { return "stuck" }
func (stuckRouter) Pick(*State, core.Task) int { return 0 }

// TestRouterReuseAcrossRuns is the regression test for stateful routers:
// before Reset existed, reusing a RoundRobin or NoisyEFT router across runs
// silently produced different (wrong) schedules on the second run.
func TestRouterReuseAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst := randomInstance(4, 60, rng)
	t.Run("RoundRobin", func(t *testing.T) {
		r := &RoundRobinRouter{}
		s1, _, err := Run(inst, r)
		if err != nil {
			t.Fatal(err)
		}
		s2, _, err := Run(inst, r) // reused, stale cursor
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s1.Machine, s2.Machine) {
			t.Fatal("reused RoundRobinRouter diverged: stale cursor not reset")
		}
	})
	t.Run("Random", func(t *testing.T) {
		// Before Seed+Reset existed, a reused seeded RandomRouter kept
		// consuming its stream and the second run silently diverged (and the
		// zero value panicked on a nil Rng).
		r := &RandomRouter{Seed: 3}
		s1, _, err := Run(inst, r)
		if err != nil {
			t.Fatal(err)
		}
		s2, _, err := Run(inst, r) // reused, stale stream position
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s1.Machine, s2.Machine) {
			t.Fatal("reused RandomRouter diverged: stream not rewound to Seed")
		}
	})
	t.Run("NoisyEFT", func(t *testing.T) {
		mk := func() *NoisyEFTRouter {
			return &NoisyEFTRouter{RelErr: 0.2, Rng: rand.New(rand.NewSource(9))}
		}
		r := mk()
		s1, _, err := Run(inst, r)
		if err != nil {
			t.Fatal(err)
		}
		r.Rng = rand.New(rand.NewSource(9)) // same noise stream, stale beliefs
		s2, _, err := Run(inst, r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s1.Machine, s2.Machine) {
			t.Fatal("reused NoisyEFTRouter diverged: stale beliefs not reset")
		}
	})
}

// TestFaultyRunsAreDeterministic: the same instance, plan and seeds give
// identical faulty runs — the property the dump/replay CLI path relies on.
func TestFaultyRunsAreDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inst := randomInstance(6, 200, rng)
	plan := faults.Generate(6, inst.Tasks[inst.N()-1].Release, 20, 5, rand.New(rand.NewSource(2)))
	policy := RetryPolicy{MaxAttempts: 4, Backoff: 0.5, BackoffFactor: 2, Timeout: 50}
	run := func() (*core.Schedule, *ElasticMetrics) {
		r := &NoisyEFTRouter{RelErr: 0.1, Rng: rand.New(rand.NewSource(3))}
		s, m, err := NewArena().Run(inst, r, Config{Plan: plan, Retry: policy})
		if err != nil {
			t.Fatal(err)
		}
		return s, m
	}
	s1, m1 := run()
	s2, m2 := run()
	if !reflect.DeepEqual(m1.Flows, m2.Flows) || !reflect.DeepEqual(m1.Attempts, m2.Attempts) ||
		!reflect.DeepEqual(m1.Dropped, m2.Dropped) {
		t.Fatal("faulty runs with identical inputs diverged")
	}
	for i := range s1.Machine {
		if s1.Machine[i] != s2.Machine[i] {
			t.Fatal("faulty schedules with identical inputs diverged")
		}
	}
}

// TestFaultyScheduleConsistency: under heavy random faults, every
// non-dropped request occupies a live-at-dispatch server without
// overlapping another request on the same server.
func TestFaultyScheduleConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		m := 3 + rng.Intn(5)
		inst := randomInstance(m, 150, rng)
		horizon := inst.Tasks[inst.N()-1].Release
		plan := faults.Generate(m, horizon, horizon/8, horizon/20, rng)
		for _, kind := range allRouterKinds {
			r, _ := routerPair(kind, rng.Int63())
			s, fm, err := NewArena().Run(inst, r, Config{Plan: plan, Retry: RetryPolicy{MaxAttempts: 5}})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, kind, err)
			}
			type span struct{ start, end core.Time }
			perServer := make([][]span, m)
			for i, task := range inst.Tasks {
				if fm.Dropped[i] {
					if s.Machine[i] != -1 {
						t.Fatalf("trial %d %s: dropped task %d still assigned", trial, kind, i)
					}
					continue
				}
				j := s.Machine[i]
				if j < 0 || j >= m || !task.Eligible(j) {
					t.Fatalf("trial %d %s: task %d on ineligible server %d", trial, kind, i, j)
				}
				if s.Start[i] < task.Release {
					t.Fatalf("trial %d %s: task %d starts before release", trial, kind, i)
				}
				if plan.DownAt(j, s.Start[i]) {
					t.Fatalf("trial %d %s: task %d starts on a down server", trial, kind, i)
				}
				perServer[j] = append(perServer[j], span{s.Start[i], s.Start[i] + task.Proc})
			}
			for j, spans := range perServer {
				sort.Slice(spans, func(a, b int) bool { return spans[a].start < spans[b].start })
				for x := 1; x < len(spans); x++ {
					if spans[x-1].end > spans[x].start+1e-9 {
						t.Fatalf("trial %d %s: overlapping service on server %d", trial, kind, j)
					}
				}
			}
		}
	}
}
