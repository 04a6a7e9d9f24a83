package sim

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"flowsched/internal/core"
	"flowsched/internal/sched"
)

// --- Reference (pre-optimization) routers ---------------------------------
//
// These are the seed implementations the allocation-free rewrites replaced:
// closure-based scans building a fresh candidate slice per Pick. They are
// the oracles for the equivalence tests below — the optimized routers must
// make byte-identical decisions.

type refEFTRouter struct{ Tie sched.TieBreak }

func (refEFTRouter) Name() string { return "refEFT" }

func (r refEFTRouter) Pick(st *State, t core.Task) int {
	tie := r.Tie
	if tie == nil {
		tie = sched.MinTie{}
	}
	var candidates []int
	tmin := core.Time(0)
	first := true
	forEach := func(f func(j int)) {
		if t.Set == nil {
			for j := 0; j < st.M; j++ {
				f(j)
			}
		} else {
			for _, j := range t.Set {
				f(j)
			}
		}
	}
	forEach(func(j int) {
		if first || st.Completion[j] < tmin {
			tmin = st.Completion[j]
			first = false
		}
	})
	if t.Release > tmin {
		tmin = t.Release
	}
	forEach(func(j int) {
		if st.Completion[j] <= tmin {
			candidates = append(candidates, j)
		}
	})
	if len(candidates) == 0 {
		return -1
	}
	return tie.Pick(candidates)
}

type refJSQRouter struct{}

func (refJSQRouter) Name() string { return "refJSQ" }

func (refJSQRouter) Pick(st *State, t core.Task) int {
	best := -1
	consider := func(j int) {
		if best == -1 || st.QueueLen[j] < st.QueueLen[best] {
			best = j
		}
	}
	if t.Set == nil {
		for j := 0; j < st.M; j++ {
			consider(j)
		}
	} else {
		for _, j := range t.Set {
			consider(j)
		}
	}
	return best
}

func sameSchedule(t *testing.T, label string, a, b *core.Schedule) {
	t.Helper()
	if !reflect.DeepEqual(a.Machine, b.Machine) {
		t.Fatalf("%s: machine assignments diverge", label)
	}
	if !reflect.DeepEqual(a.Start, b.Start) {
		t.Fatalf("%s: start times diverge", label)
	}
}

func sameMetrics(t *testing.T, label string, a, b *Metrics) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: metrics diverge:\n%+v\n%+v", label, a, b)
	}
}

// TestRouterEquivalence pins the scratch-buffer routers to the seed
// implementations on random restricted instances.
func TestRouterEquivalence(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(1+rng.Intn(8), 200, rng)
		sOpt, mOpt, err := Run(inst, EFTRouter{})
		if err != nil {
			t.Fatal(err)
		}
		sRef, mRef, err := Run(inst, refEFTRouter{})
		if err != nil {
			t.Fatal(err)
		}
		sameSchedule(t, "EFT", sOpt, sRef)
		sameMetrics(t, "EFT", mOpt, mRef)

		sOpt, mOpt, err = Run(inst, JSQRouter{})
		if err != nil {
			t.Fatal(err)
		}
		sRef, mRef, err = Run(inst, refJSQRouter{})
		if err != nil {
			t.Fatal(err)
		}
		sameSchedule(t, "JSQ", sOpt, sRef)
		sameMetrics(t, "JSQ", mOpt, mRef)
	}
}

// equivPairs are the optimized routers FuzzRouterEquivalence and
// TestEFTLoopEquivalence check against their references: EFT under Min and
// Max, which the EFT loop picks directly, and under a seeded RandTie, which
// it hands eftTieSet's candidates. The two RandTies draw from identically
// seeded generators, so both runs consume the same stream.
func equivPairs(seed int64) []equivPair {
	randTie := func() sched.TieBreak { return sched.RandTie{Rng: rand.New(rand.NewSource(seed))} }
	return []equivPair{
		{"EFT-Min", EFTRouter{}, refEFTRouter{}},
		{"EFT-Max", EFTRouter{Tie: sched.MaxTie{}}, refEFTRouter{Tie: sched.MaxTie{}}},
		{"EFT-Rand", EFTRouter{Tie: randTie()}, refEFTRouter{Tie: randTie()}},
		{"JSQ", JSQRouter{}, refJSQRouter{}},
	}
}

type equivPair struct {
	label    string
	opt, ref Router
}

// check runs inst under both routers and requires byte-identical schedules
// and metrics.
func (p equivPair) check(t *testing.T, inst *core.Instance) {
	t.Helper()
	sOpt, mOpt, err := Run(inst, p.opt)
	if err != nil {
		t.Fatal(err)
	}
	sRef, mRef, err := Run(inst, p.ref)
	if err != nil {
		t.Fatal(err)
	}
	sameSchedule(t, p.label, sOpt, sRef)
	sameMetrics(t, p.label, mOpt, mRef)
}

// tieHeavy floors every release to an integer and makes every task
// unit-length, so that many machines share a completion time and the
// tie-break decides most dispatches.
func tieHeavy(inst *core.Instance) {
	for i := range inst.Tasks {
		inst.Tasks[i].Release = math.Floor(inst.Tasks[i].Release)
		inst.Tasks[i].Proc = 1
	}
}

// eftLoopInstance builds n tasks on m machines at load 0.9 with occasional
// idle gaps. family 0 gives full sets, 1 wrapping ring arcs, 2 random
// subsets, 3 a mix of the three and 4 the same mix with no full set before
// the middle task, so that the ready tree's first descent comes after many
// leaf-only updates.
func eftLoopInstance(m, n, family int, rng *rand.Rand) *core.Instance {
	tasks := make([]core.Task, n)
	tm := 0.0
	for i := range tasks {
		tm += rng.ExpFloat64() / (0.9 * float64(m))
		if rng.Intn(50) == 0 {
			tm += 20 // every machine drains
		}
		tasks[i] = core.Task{Release: tm, Proc: 0.1 + rng.Float64()*2}
		f := family
		switch {
		case f == 3 || f == 4 && i >= n/2:
			f = rng.Intn(3)
		case f == 4:
			f = 1 + rng.Intn(2)
		}
		switch f {
		case 1:
			tasks[i].Set = core.MustRingInterval(rng.Intn(m), 1+rng.Intn(m), m)
		case 2:
			tasks[i].Set = core.NewProcSet(rng.Perm(m)[:1+rng.Intn(min(m, 20))]...)
		}
	}
	return core.NewInstance(m, tasks)
}

// TestEFTLoopEquivalence pins the EFT loop (the ready tree for full sets,
// member scans for restricted ones) to the generic loop, which refEFTRouter
// forces Run through. The machine counts cross the tree's power-of-two
// padding (15, 16, 17) and reach m = 1000.
func TestEFTLoopEquivalence(t *testing.T) {
	for _, m := range []int{1, 2, 5, 15, 16, 17, 1000} {
		n := 300 + 2*m
		for family := 0; family < 5; family++ {
			for _, ties := range []bool{false, true} {
				seed := int64(m*10 + family)
				inst := eftLoopInstance(m, n, family, rand.New(rand.NewSource(seed)))
				if ties {
					tieHeavy(inst)
				}
				for _, p := range equivPairs(seed)[:3] { // the EFT pairs
					p.label = fmt.Sprintf("%s m=%d family=%d ties=%v", p.label, m, family, ties)
					p.check(t, inst)
				}
			}
		}
	}
}

// TestEFTLoopOverflow: completion times that overflow to +Inf put every
// machine in the tie set. Padding leaves hold +Inf too, and must not win
// the rightmost descent (m = 5 pads to 8 leaves).
func TestEFTLoopOverflow(t *testing.T) {
	tasks := make([]core.Task, 8)
	for i := range tasks {
		tasks[i] = core.Task{Release: 1e308, Proc: 1e308}
	}
	inst := core.NewInstance(5, tasks)
	for _, tc := range []struct {
		pair equivPair
		want []int
	}{
		{equivPairs(0)[0], []int{0, 1, 2, 3, 4, 0, 0, 0}},
		{equivPairs(0)[1], []int{4, 3, 2, 1, 0, 4, 4, 4}},
	} {
		tc.pair.check(t, inst)
		s, _, err := Run(inst, tc.pair.opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s.Machine, tc.want) {
			t.Errorf("%s: machines %v, want %v", tc.pair.label, s.Machine, tc.want)
		}
	}
}

// TestReadyTreeMatchesLinearRule checks the tree's descents and the member
// scan against the linear EFT rule, U = { j : C_j ≤ max(r, min C) } with
// the first or the last of U chosen, on random completion vectors full of
// ties and +Inf leaves. Up to 4m updates, ties and +Inf among them, come
// before the first descent, which builds the lazily kept minima. The
// completions include the ends of the key range (+0, the largest finite
// time, +Inf) and releases include −0; one draw in ten takes m up to 1,100,
// so that 10- and 11-level trees with uneven padding are covered.
func TestReadyTreeMatchesLinearRule(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(40)
		if rng.Intn(10) == 0 {
			m = 1 + rng.Intn(1100)
		}
		tree := newReadyTree(m)
		comp := make([]core.Time, m)
		// linear returns the first and last member of set (nil: all
		// machines) in U.
		linear := func(set []int, r core.Time) (first, last int) {
			thr := comp[set[0]]
			for _, j := range set {
				thr = min(thr, comp[j])
			}
			thr = max(thr, r)
			first = -1
			for _, j := range set {
				if comp[j] <= thr {
					if first < 0 {
						first = j
					}
					last = j
				}
			}
			return first, last
		}
		all := rng.Perm(m)
		sort.Ints(all)
		set := func(j int, c core.Time) {
			comp[j] = c
			tree.set(j, c)
		}
		for w := rng.Intn(4*m + 1); w > 0; w-- {
			switch j := rng.Intn(m); rng.Intn(6) {
			case 0:
				set(j, math.Inf(1))
			case 1:
				set(j, core.Time(rng.Intn(4)))
			case 2:
				set(j, math.MaxFloat64)
			default:
				set(j, rng.Float64()*4)
			}
		}
		for step := 0; step < 300; step++ {
			switch j := rng.Intn(m); rng.Intn(8) {
			case 0:
				set(j, math.Inf(1))
			case 1:
				set(j, core.Time(rng.Intn(4)))
			case 2:
				if rng.Intn(10) == 0 {
					for j := range comp {
						set(j, math.Inf(1))
					}
				}
			case 3:
				set(j, math.MaxFloat64)
			case 4:
				set(j, 0)
			default:
				set(j, rng.Float64()*4)
			}
			r := core.Time(rng.Intn(5))
			switch rng.Intn(8) {
			case 0:
				r = math.Copysign(0, -1)
			case 1, 2, 3:
				r = rng.Float64() * 5
			}
			first, last := linear(all, r)
			if tree.pick(r, false) != first || tree.pick(r, true) != last || tree.stale {
				return false // the first descent builds the minima once
			}
			if !reflect.DeepEqual(tree.leaves(), comp) {
				return false
			}
			sub := core.NewProcSet(rng.Perm(m)[:1+rng.Intn(m)]...)
			first, last = linear(sub, r)
			if memberPick(sub, r, comp, false) != first || memberPick(sub, r, comp, true) != last {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestReadyTreeAllInf: with every machine's completion at +Inf the tie set
// is every machine, and neither descent may reach a padding leaf (m = 1000
// pads to 1024).
func TestReadyTreeAllInf(t *testing.T) {
	const m = 1000
	tree := newReadyTree(m)
	for j := 0; j < m; j++ {
		tree.set(j, math.Inf(1))
	}
	for _, r := range []core.Time{0, 1, math.MaxFloat64} {
		if first, last := tree.pick(r, false), tree.pick(r, true); first != 0 || last != m-1 {
			t.Errorf("r=%v: picks %d and %d, want 0 and %d", r, first, last, m-1)
		}
	}
}

// TestEFTLoopNegativeZeroRelease: a release of −0 passes Validate and ties
// with machines free at +0. Three unit tasks released then on m = 3 go to
// machines 0, 1, 2 under EFT-Min and 2, 1, 0 under EFT-Max, as in the
// generic loop, whether their sets are full (the tree descent) or {0, 1, 2}
// (the member scan); the sign bit must lift neither the descent's threshold
// nor the member keys above the busy machines.
func TestEFTLoopNegativeZeroRelease(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, set := range []core.ProcSet{nil, core.Interval(0, 2)} {
		tasks := make([]core.Task, 3)
		for i := range tasks {
			tasks[i] = core.Task{Release: negZero, Proc: 1, Set: set}
		}
		inst := core.NewInstance(3, tasks)
		for _, tc := range []struct {
			pair equivPair
			want []int
		}{
			{equivPairs(0)[0], []int{0, 1, 2}},
			{equivPairs(0)[1], []int{2, 1, 0}},
		} {
			tc.pair.check(t, inst)
			s, _, err := Run(inst, tc.pair.opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(s.Machine, tc.want) {
				t.Errorf("%s, set %v: machines %v, want %v", tc.pair.label, set, s.Machine, tc.want)
			}
		}
	}
}

// TestReadyTreeAllocFree: updating the tree and descending it allocate
// nothing.
func TestReadyTreeAllocFree(t *testing.T) {
	tree := newReadyTree(17)
	set := core.Interval(3, 7)
	r := 0.0
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			r += 0.05
			j := tree.pick(r, i%2 == 0)
			tree.set(j, max(r, tree.leaves()[j])+1)
			j = memberPick(set, r, tree.leaves(), i%2 == 1)
			tree.set(j, max(r, tree.leaves()[j])+1)
		}
	})
	if avg != 0 {
		t.Fatalf("ready tree allocates %v times per 128 dispatches", avg)
	}
}

// outsideTie is a custom tie-break that picks machine 3, outside the sets
// of the instance it is run on.
type outsideTie struct{}

func (outsideTie) Name() string     { return "outside" }
func (outsideTie) Pick(c []int) int { return 3 }

// TestEFTLoopInvalidTiePick: the EFT loop checks what a custom tie-break
// returns, as the generic loop checks a router's pick.
func TestEFTLoopInvalidTiePick(t *testing.T) {
	inst := core.NewInstance(4, []core.Task{{Release: 0, Proc: 1, Set: core.Interval(0, 1)}})
	_, _, err := Run(inst, EFTRouter{Tie: outsideTie{}})
	if err == nil || !strings.Contains(err.Error(), "router EFT-outside picked invalid server M4 for task 0") {
		t.Fatalf("Run error = %v, want the invalid-pick error", err)
	}
}

// TestFastPathGate: every EFTRouter takes the EFT loop, whatever its
// tie-break; every other router takes the generic loop.
func TestFastPathGate(t *testing.T) {
	for _, r := range []Router{
		EFTRouter{}, EFTRouter{Tie: sched.MinTie{}}, EFTRouter{Tie: sched.MaxTie{}},
		EFTRouter{Tie: sched.RandTie{Rng: rand.New(rand.NewSource(1))}}, EFTRouter{Tie: outsideTie{}},
	} {
		if _, ok := eftLoop(r); !ok {
			t.Errorf("%s should take the EFT loop", r.Name())
		}
	}
	for _, r := range []Router{
		JSQRouter{}, &RandomRouter{}, &NoisyEFTRouter{}, &RoundRobinRouter{},
		PowerOfTwoRouter{}, refEFTRouter{},
	} {
		if _, ok := eftLoop(r); ok {
			t.Errorf("%s must take the generic loop", r.Name())
		}
	}
}

// FuzzRouterEquivalence drives the optimized and reference routers over
// fuzz-shaped instances and requires byte-identical schedules. intReleases
// makes the instance tie-heavy (integer releases, unit tasks). The top eight
// m8 values draw m from [1,000, 1,100] instead of [1, 16], so the fuzzer also
// reaches the 10- and 11-level ready trees of the scale point (m = 10³).
func FuzzRouterEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(50), false)
	f.Add(int64(7), uint8(1), uint8(10), false)
	f.Add(int64(42), uint8(12), uint8(200), false)
	f.Add(int64(3), uint8(5), uint8(120), true)
	f.Add(int64(77), uint8(0xFF), uint8(255), false)
	f.Fuzz(func(t *testing.T, seed int64, m8, n8 uint8, intReleases bool) {
		m := 1 + int(m8)%16
		if m8 >= 0xF8 {
			m = 1000 + int(uint64(seed)%101)
		}
		n := 1 + int(n8)
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(m, n, rng)
		if intReleases {
			tieHeavy(inst)
		}
		for _, p := range equivPairs(seed) {
			p.check(t, inst)
		}
	})
}

// --- Allocation guards ----------------------------------------------------

// TestRouterPickAllocs pins the hot-path contract from DESIGN.md §7:
// router Pick allocates nothing once the State's scratch buffer is warm.
func TestRouterPickAllocs(t *testing.T) {
	const m = 15
	st := &State{M: m, Completion: make([]core.Time, m), QueueLen: make([]int, m)}
	restricted := core.Task{Release: 1, Proc: 1, Set: core.Interval(2, 6)}
	full := core.Task{Release: 1, Proc: 1}
	cases := []struct {
		name   string
		router Router
		task   core.Task
	}{
		{"EFTRouter.Pick/set", EFTRouter{}, restricted},
		{"EFTRouter.Pick/full", EFTRouter{}, full},
		{"EFTRouter.Pick/maxTie", EFTRouter{Tie: sched.MaxTie{}}, restricted},
		{"JSQRouter.Pick/set", JSQRouter{}, restricted},
		{"JSQRouter.Pick/full", JSQRouter{}, full},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.router.Pick(st, tc.task) // warm the scratch buffer
			avg := testing.AllocsPerRun(200, func() {
				j := tc.router.Pick(st, tc.task)
				st.Completion[j] += 0.1
				st.QueueLen[j]++
			})
			if avg != 0 {
				t.Errorf("%s allocates %v per call, want 0", tc.name, avg)
			}
		})
	}
}

// TestRunAllocsConstant asserts the per-task dispatch loop of Run is
// allocation-free: total allocations per Run must not scale with n (they
// would exceed n if any per-task path allocated).
func TestRunAllocsConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inst := randomInstance(8, 2000, rng)
	for _, router := range []Router{EFTRouter{}, JSQRouter{}} {
		avg := testing.AllocsPerRun(5, func() {
			if _, _, err := Run(inst, router); err != nil {
				t.Fatal(err)
			}
		})
		// Setup allocations (schedule, metrics, state, reserved queue) are
		// O(1) in count; 64 is far below one alloc per task.
		if avg > 64 {
			t.Errorf("%s: %v allocs per Run of %d tasks: per-task dispatch allocates", router.Name(), avg, inst.N())
		}
	}
}

// TestRunOutputAllocs pins what Run allocates per task: the schedule's
// Machine and Start and the metrics' Flows, 8 bytes each, and nothing else
// that grows with n. The bound allows an eighth more for the allocator's
// size classes (2.4% at these n) and 128 bytes per machine for the ready
// tree, Busy and the result headers; a fourth per-task vector exceeds it at
// both sizes. The runs are on m = 15 wrapping ring arcs (eftLoopInstance's
// family 1); TotalAlloc reads 25,248 and 246,432 bytes per Run at n = 10³
// and 10⁴, with or without the race detector, give or take a stray
// runtime allocation.
func TestRunOutputAllocs(t *testing.T) {
	const m = 15
	for _, n := range []int{1000, 10000} {
		inst := eftLoopInstance(m, n, 1, rand.New(rand.NewSource(int64(n))))
		for _, router := range []EFTRouter{{Tie: sched.MinTie{}}, {Tie: sched.MaxTie{}}} {
			got := bytesPerRun(5, func() {
				if _, _, err := Run(inst, router); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s, n = %d: %d bytes per Run", router.Name(), n, got)
			if limit := uint64(3*8*n*9/8 + 128*m); got > limit {
				t.Errorf("%s, n = %d: %d bytes per Run, want at most %d (three 8-byte vectors per task)",
					router.Name(), n, got, limit)
			}
		}
	}
}

// bytesPerRun returns the heap bytes one call of f allocates, averaged over
// runs calls after a warm-up call, on one P as testing.AllocsPerRun counts.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// --- Bugfix satellites ----------------------------------------------------

// TestEmptySetError: a non-nil empty Set means "no eligible server". Every
// router's Pick reports it as -1 instead of panicking (the RandomRouter
// used to crash in rand.Intn(0), EFT in the tie-break), and Run — whose
// Validate normally screens such instances out — turns a -1 from a task
// that really has no eligible server into a clear error rather than
// blaming the router for an invalid pick.
func TestEmptySetError(t *testing.T) {
	st := &State{M: 2, Completion: make([]core.Time, 2), QueueLen: make([]int, 2)}
	empty := core.Task{Release: 0, Proc: 1, Set: core.ProcSet{}}
	for _, router := range []Router{EFTRouter{}, JSQRouter{}, &RandomRouter{}, &NoisyEFTRouter{}, &RoundRobinRouter{}} {
		if r, ok := router.(Resettable); ok {
			r.Reset()
		}
		if j := router.Pick(st, empty); j != -1 {
			t.Errorf("%s.Pick on empty set = %d, want -1", router.Name(), j)
		}
	}
	// Run screens empty-set tasks out at validation with a clear error.
	inst := core.NewInstance(2, []core.Task{
		{Release: 0, Proc: 1},
		{Release: 1, Proc: 1, Set: core.ProcSet{}},
	})
	if _, _, err := Run(inst, EFTRouter{}); err == nil || !containsStr(err.Error(), "empty processing set") {
		t.Errorf("Run error = %v, should reject the empty processing set", err)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestRandomRouterReplay: the zero value lazily seeds itself, Reset rewinds
// the stream, and a reused router replays identical schedules run to run.
func TestRandomRouterReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst := randomInstance(4, 80, rng)

	r := &RandomRouter{} // zero value: must not panic (the seed bug)
	s1, _, err := Run(inst, r)
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := Run(inst, r)
	if err != nil {
		t.Fatal(err)
	}
	sameSchedule(t, "reused zero-value RandomRouter", s1, s2)

	// Distinct seeds give distinct streams; same seed on a fresh value
	// replays the first run.
	s3, _, err := Run(inst, &RandomRouter{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(s1.Machine, s3.Machine) {
		t.Fatal("seed 0 and seed 99 produced identical schedules: Seed is ignored")
	}
	s4, _, err := Run(inst, &RandomRouter{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	sameSchedule(t, "same-seed fresh RandomRouter", s3, s4)

	// Pick without a prior Reset lazily seeds (direct router use, no Run).
	lazy := &RandomRouter{Seed: 7}
	st := &State{M: 3, Completion: make([]core.Time, 3), QueueLen: make([]int, 3)}
	if j := lazy.Pick(st, core.Task{}); j < 0 || j >= 3 {
		t.Fatalf("lazy Pick = %d", j)
	}

	// Empty sets are reported as no-pick, not a panic.
	if j := lazy.Pick(st, core.Task{Set: core.ProcSet{}}); j != -1 {
		t.Fatalf("empty set Pick = %d, want -1", j)
	}
}

// TestMetricsEmptyRun: aggregates of an empty run are zeros (not ±Inf, the
// stats.Min/Max regression) and the metrics marshal cleanly.
func TestMetricsEmptyRun(t *testing.T) {
	m := &Metrics{}
	if m.MaxFlow() != 0 || m.MaxStretch() != 0 || m.SteadyStateMaxFlow(0.5) != 0 {
		t.Errorf("empty-run maxima = %v %v %v, want zeros",
			m.MaxFlow(), m.MaxStretch(), m.SteadyStateMaxFlow(0.5))
	}
	if m.MeanFlow() != 0 || m.Utilization() != 0 {
		t.Errorf("empty-run means = %v %v, want zeros", m.MeanFlow(), m.Utilization())
	}
	data, err := json.Marshal(struct {
		MaxFlow, MaxStretch core.Time
	}{m.MaxFlow(), m.MaxStretch()})
	if err != nil {
		t.Fatalf("empty-run metrics not marshalable: %v", err)
	}
	var round struct{ MaxFlow, MaxStretch float64 }
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatal(err)
	}
	if math.IsInf(round.MaxFlow, 0) || math.IsInf(round.MaxStretch, 0) {
		t.Errorf("empty-run metrics round-tripped to ±Inf")
	}
}
