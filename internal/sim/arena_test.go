package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/elastic"
	"flowsched/internal/faults"
	"flowsched/internal/overload"
)

// drainFQ pops server j's queue into a slice (test helper).
func drainFQ(fq *fifoQueues, j int) []int {
	var out []int
	for fq.head[j] >= 0 {
		out = append(out, fq.popHead(j))
	}
	return out
}

func TestFIFOQueuesOrder(t *testing.T) {
	var fq fifoQueues
	fq.reset(10, 3)
	for _, id := range []int{4, 1, 7, 2} {
		fq.push(0, id)
	}
	fq.push(1, 5)
	fq.push(1, 9)
	if got := drainFQ(&fq, 0); !reflect.DeepEqual(got, []int{4, 1, 7, 2}) {
		t.Fatalf("server 0 FIFO order = %v", got)
	}
	if got := drainFQ(&fq, 1); !reflect.DeepEqual(got, []int{5, 9}) {
		t.Fatalf("server 1 FIFO order = %v", got)
	}
	if fq.head[2] != -1 || fq.tail[2] != -1 {
		t.Fatalf("untouched server 2 not empty: head %d tail %d", fq.head[2], fq.tail[2])
	}
	// A drained queue accepts pushes again (tail/head cursors consistent).
	fq.push(0, 3)
	if got := drainFQ(&fq, 0); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("after drain, server 0 = %v", got)
	}
}

func TestFIFOQueuesRemove(t *testing.T) {
	var fq fifoQueues
	fq.reset(8, 1)
	reload := func(ids ...int) {
		fq.reset(8, 1)
		for _, id := range ids {
			fq.push(0, id)
		}
	}

	// Mid-queue removal preserves the order of the rest (satellite: the old
	// defensive append-copy allocated; the freelist splices in place).
	reload(0, 1, 2, 3)
	fq.remove(0, 2)
	if got := drainFQ(&fq, 0); !reflect.DeepEqual(got, []int{0, 1, 3}) {
		t.Fatalf("mid removal: %v", got)
	}

	// Head removal.
	reload(0, 1, 2)
	fq.remove(0, 0)
	if got := drainFQ(&fq, 0); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("head removal: %v", got)
	}

	// Tail removal must fix the tail cursor so a later push chains correctly.
	reload(0, 1, 2)
	fq.remove(0, 2)
	fq.push(0, 5)
	if got := drainFQ(&fq, 0); !reflect.DeepEqual(got, []int{0, 1, 5}) {
		t.Fatalf("tail removal + push: %v", got)
	}

	// Removing a task that is not queued is a no-op, not a corruption.
	reload(0, 1)
	fq.remove(0, 7)
	if got := drainFQ(&fq, 0); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("absent removal mutated the queue: %v", got)
	}

	// Removing the only element empties the queue completely.
	reload(4)
	fq.remove(0, 4)
	if fq.head[0] != -1 || fq.tail[0] != -1 {
		t.Fatalf("single removal left head %d tail %d", fq.head[0], fq.tail[0])
	}
}

func TestFIFOQueuesTakeAll(t *testing.T) {
	var fq fifoQueues
	fq.reset(6, 2)
	for _, id := range []int{3, 0, 5} {
		fq.push(1, id)
	}
	h := fq.takeAll(1)
	if fq.head[1] != -1 || fq.tail[1] != -1 {
		t.Fatalf("takeAll left head %d tail %d", fq.head[1], fq.tail[1])
	}
	var got []int
	for id := h; id >= 0; id = fq.next[id] {
		got = append(got, id)
	}
	if !reflect.DeepEqual(got, []int{3, 0, 5}) {
		t.Fatalf("takeAll chain = %v", got)
	}
}

// TestFIFOQueuesNoAlloc pins the whole point of the freelist: after reset,
// every queue operation — including mid-queue removal, which used to copy the
// tail of a [][]int queue — runs without allocating.
func TestFIFOQueuesNoAlloc(t *testing.T) {
	var fq fifoQueues
	fq.reset(64, 4)
	allocs := testing.AllocsPerRun(10, func() {
		for id := 0; id < 64; id++ {
			fq.push(id%4, id)
		}
		fq.remove(1, 33) // mid-queue
		fq.remove(2, 2)  // head
		fq.remove(3, 63) // tail
		for j := 0; j < 4; j++ {
			for fq.head[j] >= 0 {
				fq.popHead(j)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("fifoQueues operations allocated %.1f times per run; want 0", allocs)
	}
}

// allocInstance is the alloc-pinning workload: bench-shaped (m = 15,
// overlapping-ish random sets, Poisson arrivals) but sized for test speed.
// The steady-state allocation count is shape-independent — it is the fixed
// per-run closure/bookkeeping cost, not FIFO traffic — so the pinned ceiling
// transfers directly to the BENCH_7 SimRun*Steady entries.
func allocInstance(n int, load float64) *core.Instance {
	rng := rand.New(rand.NewSource(7))
	return overloadedInstance(15, n, load, rng)
}

// pinAllocs warms the arena with one run, then asserts the steady-state
// allocation ceiling over the next runs.
func pinAllocs(t *testing.T, ceiling float64, run func()) {
	t.Helper()
	run() // warm: first run sizes every buffer
	if allocs := testing.AllocsPerRun(5, run); allocs > ceiling {
		t.Fatalf("steady-state run allocated %.1f times; ceiling %v", allocs, ceiling)
	}
}

// TestRunFaultyAllocs pins the reused-arena engine at nil layers: an
// explicit empty plan and a nil one (the engine substitutes faults.Empty)
// keep the same steady-state ceiling. A nil probe is part of the contract:
// tracing is pay-for-use, so the unobserved path allocates no more. Without
// a shedder the arena keeps no copy of the releases either.
func TestRunFaultyAllocs(t *testing.T) {
	inst := allocInstance(2000, 0.8)
	for _, tc := range []struct {
		name string
		plan *faults.Plan
	}{{"nil-plan", nil}, {"empty-plan", faults.Empty(15)}} {
		t.Run(tc.name, func(t *testing.T) {
			arena := NewArena()
			pinAllocs(t, 50, func() {
				if _, _, err := arena.Run(inst, EFTRouter{}, Config{Plan: tc.plan}); err != nil {
					t.Fatal(err)
				}
			})
			if arena.releases != nil {
				t.Errorf("a run without a shedder copied %d releases", len(arena.releases))
			}
		})
	}
}

// TestRunStackArmedAllocs pins a reused arena's run of the stack link mix
// (every link armed, no probe) at 57 allocations, the same at n = 2,000 and
// 20,000. The run normalizes its 40-outage plan once, on entry: the
// finalization's downtime and RecoverySpikeMaxFlow read that plan, and
// normalizing it again per run cost 38 allocations more.
func TestRunStackArmedAllocs(t *testing.T) {
	for _, n := range []int{2000, 20000} {
		inst := stackInstance(n, 47)
		horizon := inst.Tasks[n-1].Release
		cfgs := make([]Config, 6) // configs carry per-run state: one per run
		for i := range cfgs {
			cfgs[i] = stackMix(horizon, 47)
		}
		arena := NewArena()
		next := 0
		allocs := testing.AllocsPerRun(len(cfgs)-1, func() {
			if _, _, err := arena.Run(inst, EFTRouter{}, cfgs[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
		if allocs > 57 {
			t.Errorf("n = %d: %v allocations per run, ceiling 57", n, allocs)
		}
	}
}

func TestRunGuardedAdmitAllocs(t *testing.T) {
	inst := allocInstance(2000, 1.4) // overloaded: admission, shedder and ejector all fire
	cfg := &overload.Config{
		Admission: overload.DeadlineAdmit{D: 20},
		Shedder:   &overload.Shedder{Policy: overload.DropLargestStretch, Watermark: 15},
		Ejector:   &overload.Ejector{},
	}
	arena := NewArena()
	pinAllocs(t, 100, func() {
		if _, _, err := arena.Run(inst, EFTRouter{}, Config{Overload: cfg}); err != nil {
			t.Fatal(err)
		}
	})
}

func eqTime(a, b core.Time) bool {
	return a == b || (math.IsNaN(float64(a)) && math.IsNaN(float64(b)))
}

// diffElastic returns the name of the first differing field between two
// elastic runs' outputs ("" when byte-identical, NaN-aware).
func diffElastic(s1, s2 *core.Schedule, m1, m2 *ElasticMetrics) string {
	switch {
	case !reflect.DeepEqual(s1.Machine, s2.Machine):
		return "schedule machines"
	case !sameTimes(s1.Start, s2.Start):
		return "schedule starts"
	case !sameTimes(m1.Flows, m2.Flows):
		return "flows"
	case !sameTimes(m1.Busy, m2.Busy):
		return "busy"
	case !eqTime(m1.Makespan, m2.Makespan):
		return "makespan"
	case !reflect.DeepEqual(m1.Attempts, m2.Attempts):
		return "attempts"
	case !reflect.DeepEqual(m1.Dropped, m2.Dropped):
		return "dropped"
	case !reflect.DeepEqual(m1.Parked, m2.Parked):
		return "parked"
	case !sameTimes(m1.Downtime, m2.Downtime):
		return "downtime"
	case !eqTime(m1.Horizon, m2.Horizon):
		return "horizon"
	case !reflect.DeepEqual(m1.Rejected, m2.Rejected):
		return "rejected"
	case !reflect.DeepEqual(m1.Shed, m2.Shed):
		return "shed"
	case !reflect.DeepEqual(m1.Reason, m2.Reason):
		return "reasons"
	case m1.Ejections != m2.Ejections || m1.Readmissions != m2.Readmissions:
		return "ejector counters"
	case m1.Brownouts != m2.Brownouts:
		return "brownouts"
	case !reflect.DeepEqual(m1.Membership, m2.Membership):
		return "membership log"
	case !sameTimes(m1.Dispatched, m2.Dispatched):
		return "dispatch instants"
	case m1.ScaleUps != m2.ScaleUps || m1.ScaleDowns != m2.ScaleDowns || m1.Handoffs != m2.Handoffs:
		return "scale counters"
	case !eqTime(m1.WarmUpTime, m2.WarmUpTime) || !eqTime(m1.MachineHours, m2.MachineHours):
		return "provisioning integrals"
	}
	return ""
}

// TestArenaReuseEquivalence is the arena's core property: one arena reused
// across every trial — crash plans, gray plans, overload controls, membership
// churn, all seven routers — produces output byte-identical to a fresh arena
// per run. Buffer recycling must be observationally invisible.
func TestArenaReuseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	shedPolicies := []overload.ShedPolicy{
		overload.DropOldest, overload.DropNewest, overload.DropLargestStretch, overload.DropRandom,
	}
	arena := NewArena() // reused across ALL trials, shapes varying every time
	for trial := 0; trial < 12; trial++ {
		m := 3 + rng.Intn(8)
		n := 20 + rng.Intn(150)
		load := 0.5 + 1.2*rng.Float64()
		inst := overloadedInstance(m, n, load, rng)
		horizon := inst.Tasks[n-1].Release + 10

		var plan *faults.Plan
		switch trial % 3 {
		case 1:
			plan = faults.Generate(m, horizon, 40, 10, rand.New(rand.NewSource(int64(trial))))
		case 2:
			plan = faults.GenerateGray(m, horizon, faults.GrayConfig{MTBF: 40, MTTR: 15},
				rand.New(rand.NewSource(int64(trial))))
		}
		var cfg *overload.Config
		if trial%2 == 1 {
			cfg = &overload.Config{
				Admission: overload.DeadlineAdmit{D: 15},
				Shedder:   &overload.Shedder{Policy: shedPolicies[trial%len(shedPolicies)], Watermark: 8, Seed: 3},
				Ejector:   &overload.Ejector{},
			}
		}
		var ecfg *elastic.Config
		if trial%4 >= 2 {
			ecfg = &elastic.Config{
				Initial: m, Min: 1 + (m-1)/2, Max: m, WarmUp: 0.5,
				Script: []elastic.Event{{At: horizon * 0.25, Delta: -2}, {At: horizon * 0.6, Delta: 2}},
			}
		}
		pol := RetryPolicy{MaxAttempts: 3}

		for _, kind := range allRouterKinds {
			seed := rng.Int63()
			ra, rb := routerPair(kind, seed)
			sF, mF, err := NewArena().Run(inst, ra, Config{Plan: plan, Retry: pol, Overload: cfg, Elastic: ecfg})
			if err != nil {
				t.Fatalf("trial %d %s: fresh arena: %v", trial, kind, err)
			}
			sR, mR, err := arena.Run(inst, rb, Config{Plan: plan, Retry: pol, Overload: cfg, Elastic: ecfg})
			if err != nil {
				t.Fatalf("trial %d %s: reused arena: %v", trial, kind, err)
			}
			if d := diffElastic(sF, sR, mF, mR); d != "" {
				t.Fatalf("trial %d %s (m=%d n=%d plan=%v ov=%v el=%v): reused arena diverges: %s",
					trial, kind, m, n, plan != nil, cfg != nil, ecfg != nil, d)
			}
		}
	}
}

// TestHeadIndexMatchesScan drives the head index through random re-keys and
// removals and checks its minimum against a linear scan over the keyed
// servers, (end, seq) order, ties in end included.
func TestHeadIndexMatchesScan(t *testing.T) {
	const m = 33
	rng := rand.New(rand.NewSource(4))
	var h headIndex
	h.reset(m)
	keys := make(map[int]headKey)
	for op := 0; op < 5000; op++ {
		j := rng.Intn(m)
		if rng.Intn(3) == 0 {
			h.remove(j)
			delete(keys, j)
		} else {
			k := headKey{end: core.Time(rng.Intn(6)), seq: uint64(op), server: j}
			h.set(j, k.end, k.seq)
			keys[j] = k
		}
		want, any := headKey{}, false
		for _, k := range keys {
			if !any || k.less(want) {
				want, any = k, true
			}
		}
		srv, end, ok := h.min()
		if ok != any || (ok && (srv != want.server || end != want.end)) {
			t.Fatalf("op %d: min = (M%d, %v, %v), want (M%d, %v, %v)", op, srv+1, end, ok, want.server+1, want.end, any)
		}
		for s, i := range h.pos {
			if _, keyed := keys[s]; keyed != (i >= 0) || (i >= 0 && h.heap[i].server != s) {
				t.Fatalf("op %d: position of M%d is %d, inconsistent with the heap", op, s+1, i)
			}
		}
	}
}
