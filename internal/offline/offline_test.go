package offline

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"flowsched/internal/adversary"
	"flowsched/internal/core"
	"flowsched/internal/sched"
)

func TestLowerBoundSimple(t *testing.T) {
	// One machine, two unit tasks at time 0: OPT Fmax = 2.
	inst := core.NewInstance(1, []core.Task{
		{Release: 0, Proc: 1},
		{Release: 0, Proc: 1},
	})
	lb := LowerBound(inst)
	if lb < 2-1e-9 {
		t.Fatalf("LowerBound = %v, want ≥ 2", lb)
	}
}

func TestLowerBoundPmax(t *testing.T) {
	inst := core.NewInstance(4, []core.Task{{Release: 0, Proc: 7}})
	if lb := LowerBound(inst); lb != 7 {
		t.Fatalf("LowerBound = %v, want 7", lb)
	}
}

func TestLowerBoundRestrictedSet(t *testing.T) {
	// Three unit tasks at time 0 all restricted to machine 0, with 4
	// machines: per-set bound gives F ≥ 3; the m-machine bound only 3/4.
	inst := core.NewInstance(4, []core.Task{
		{Release: 0, Proc: 1, Set: core.NewProcSet(0)},
		{Release: 0, Proc: 1, Set: core.NewProcSet(0)},
		{Release: 0, Proc: 1, Set: core.NewProcSet(0)},
	})
	if lb := LowerBound(inst); lb < 3-1e-9 {
		t.Fatalf("LowerBound = %v, want ≥ 3", lb)
	}
}

func TestBruteForceTinyExamples(t *testing.T) {
	// Theorem 7 flavor: T1 on {1,2} p=2 at 0, then two tasks on {0,1} p=2
	// at 1 -> OPT puts T1 on machine 2, Fmax = 2 (T2,T3 start at 1).
	inst := core.NewInstance(4, []core.Task{
		{Release: 0, Proc: 2, Set: core.NewProcSet(1, 2)},
		{Release: 1, Proc: 2, Set: core.NewProcSet(0, 1)},
		{Release: 1, Proc: 2, Set: core.NewProcSet(0, 1)},
	})
	s, err := BruteForce(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.MaxFlow() != 2 {
		t.Fatalf("OPT Fmax = %v, want 2", s.MaxFlow())
	}
}

func TestBruteForceRejectsLarge(t *testing.T) {
	tasks := make([]core.Task, MaxBruteForceTasks+1)
	for i := range tasks {
		tasks[i] = core.Task{Release: 0, Proc: 1}
	}
	if _, err := BruteForce(core.NewInstance(2, tasks)); err == nil {
		t.Fatalf("expected size rejection")
	}
}

func TestUnitOptimalSimple(t *testing.T) {
	// m=2, four unit tasks at 0: two rounds -> F = 2.
	tasks := make([]core.Task, 4)
	for i := range tasks {
		tasks[i] = core.Task{Release: 0, Proc: 1}
	}
	inst := core.NewInstance(2, tasks)
	f, err := UnitOptimal(inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f != 2 {
		t.Fatalf("UnitOptimal = %v, want 2", f)
	}
}

func TestUnitOptimalRestricted(t *testing.T) {
	// Three unit tasks at 0 restricted to machine 0 among 3 machines: F=3.
	inst := core.NewInstance(3, []core.Task{
		{Release: 0, Proc: 1, Set: core.NewProcSet(0)},
		{Release: 0, Proc: 1, Set: core.NewProcSet(0)},
		{Release: 0, Proc: 1, Set: core.NewProcSet(0)},
	})
	f, err := UnitOptimal(inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f != 3 {
		t.Fatalf("UnitOptimal = %v, want 3", f)
	}
}

func TestUnitOptimalRejectsNonUnit(t *testing.T) {
	inst := core.NewInstance(1, []core.Task{{Release: 0, Proc: 2}})
	if _, err := UnitOptimal(inst, 0); err == nil {
		t.Fatalf("expected rejection of non-unit tasks")
	}
	inst2 := core.NewInstance(1, []core.Task{{Release: 0.5, Proc: 1}})
	if _, err := UnitOptimal(inst2, 0); err == nil {
		t.Fatalf("expected rejection of fractional releases")
	}
}

// randomUnitInstance draws a small random unit-task instance with arbitrary
// processing sets and integer releases.
func randomUnitInstance(rng *rand.Rand, m, n int) *core.Instance {
	tasks := make([]core.Task, n)
	for i := range tasks {
		var ids []int
		for j := 0; j < m; j++ {
			if rng.Intn(2) == 0 {
				ids = append(ids, j)
			}
		}
		if len(ids) == 0 {
			ids = append(ids, rng.Intn(m))
		}
		tasks[i] = core.Task{
			Release: float64(rng.Intn(5)),
			Proc:    1,
			Set:     core.NewProcSet(ids...),
		}
	}
	return core.NewInstance(m, tasks)
}

// TestBruteForceMatchesUnitOptimal cross-checks the two exact solvers on
// random small unit instances.
func TestBruteForceMatchesUnitOptimal(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(3)
		n := 1 + rng.Intn(8)
		inst := randomUnitInstance(rng, m, n)
		bf, err := BruteForce(inst)
		if err != nil {
			return false
		}
		uo, err := UnitOptimal(inst, 0)
		if err != nil {
			return false
		}
		return math.Abs(bf.MaxFlow()-uo) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestLowerBoundIsValid checks LowerBound ≤ OPT on random small instances.
func TestLowerBoundIsValid(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(3)
		n := 1 + rng.Intn(8)
		tasks := make([]core.Task, n)
		for i := range tasks {
			tasks[i] = core.Task{
				Release: float64(rng.Intn(5)),
				Proc:    0.5 + rng.Float64()*2,
			}
		}
		inst := core.NewInstance(m, tasks)
		bf, err := BruteForce(inst)
		if err != nil {
			return false
		}
		return LowerBound(inst) <= bf.MaxFlow()+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestTheorem1Bound verifies FIFO/EFT is within (3 − 2/m) of the exact
// optimum on random unrestricted instances (Theorem 1).
func TestTheorem1Bound(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(3)
		n := 2 + rng.Intn(8)
		tasks := make([]core.Task, n)
		for i := range tasks {
			tasks[i] = core.Task{
				Release: rng.Float64() * 4,
				Proc:    0.2 + rng.Float64()*2,
			}
		}
		inst := core.NewInstance(m, tasks)
		eft, err := sched.NewEFT(sched.MinTie{}).Run(inst)
		if err != nil {
			return false
		}
		opt, err := BruteForce(inst)
		if err != nil {
			return false
		}
		ratio := eft.MaxFlow() / opt.MaxFlow()
		return ratio <= 3-2/float64(m)+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestTheorem2FIFOOptimalUnit verifies Theorem 2: FIFO solves
// P|online-r_i, p_i = p|Fmax optimally (unit tasks, no restrictions).
func TestTheorem2FIFOOptimalUnit(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(3)
		n := 1 + rng.Intn(10)
		tasks := make([]core.Task, n)
		for i := range tasks {
			tasks[i] = core.Task{Release: float64(rng.Intn(6)), Proc: 1}
		}
		inst := core.NewInstance(m, tasks)
		fifo, err := (&sched.FIFO{}).Run(inst)
		if err != nil {
			return false
		}
		opt, err := UnitOptimal(inst, int(fifo.MaxFlow())+1)
		if err != nil {
			return false
		}
		return math.Abs(fifo.MaxFlow()-opt) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCorollary1DisjointBound verifies EFT is (3 − 2/k)-competitive on
// disjoint size-k processing sets (Corollary 1) against the exact optimum.
func TestCorollary1DisjointBound(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		blocks := 1 + rng.Intn(2)
		m := k * blocks
		n := 2 + rng.Intn(7)
		tasks := make([]core.Task, n)
		for i := range tasks {
			b := rng.Intn(blocks)
			tasks[i] = core.Task{
				Release: rng.Float64() * 3,
				Proc:    0.2 + rng.Float64()*2,
				Set:     core.Interval(b*k, b*k+k-1),
			}
		}
		inst := core.NewInstance(m, tasks)
		eft, err := sched.NewEFT(sched.MinTie{}).Run(inst)
		if err != nil {
			return false
		}
		opt, err := BruteForce(inst)
		if err != nil {
			return false
		}
		return eft.MaxFlow() <= (3-2/float64(k))*opt.MaxFlow()+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUnitOptimalBadUpperBound(t *testing.T) {
	// hi=1 infeasible here (two tasks, one machine).
	inst := core.NewInstance(1, []core.Task{
		{Release: 0, Proc: 1},
		{Release: 0, Proc: 1},
	})
	if _, err := UnitOptimal(inst, 1); err == nil {
		t.Fatalf("expected infeasible upper bound error")
	}
}

func TestBruteForceEmptyInstance(t *testing.T) {
	inst := core.NewInstance(2, nil)
	s, err := BruteForce(inst)
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxFlow() != 0 {
		t.Fatalf("empty instance Fmax = %v", s.MaxFlow())
	}
}

// naiveBruteForce is an unpruned reference used to certify the optimized
// BruteForce.
func naiveBruteForce(inst *core.Instance) core.Time {
	n := inst.N()
	completion := make([]core.Time, inst.M)
	best := math.Inf(1)
	var dfs func(i int, curF core.Time)
	dfs = func(i int, curF core.Time) {
		if i == n {
			if curF < best {
				best = curF
			}
			return
		}
		task := inst.Tasks[i]
		try := func(j int) {
			start := completion[j]
			if task.Release > start {
				start = task.Release
			}
			f := curF
			if flow := start + task.Proc - task.Release; flow > f {
				f = flow
			}
			saved := completion[j]
			completion[j] = start + task.Proc
			dfs(i+1, f)
			completion[j] = saved
		}
		if task.Set == nil {
			for j := 0; j < inst.M; j++ {
				try(j)
			}
		} else {
			for _, j := range task.Set {
				try(j)
			}
		}
	}
	dfs(0, 0)
	return best
}

// TestBruteForceMatchesNaive certifies the pruned search (EFT incumbent,
// branch ordering, symmetry breaking) against the unpruned reference.
func TestBruteForceMatchesNaive(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(4)
		n := 1 + rng.Intn(8)
		tasks := make([]core.Task, n)
		for i := range tasks {
			var set core.ProcSet
			switch rng.Intn(3) {
			case 0: // unrestricted
			case 1:
				lo := rng.Intn(m)
				set = core.Interval(lo, lo+rng.Intn(m-lo))
			default:
				var ids []int
				for j := 0; j < m; j++ {
					if rng.Intn(2) == 0 {
						ids = append(ids, j)
					}
				}
				if len(ids) == 0 {
					ids = []int{rng.Intn(m)}
				}
				set = core.NewProcSet(ids...)
			}
			tasks[i] = core.Task{
				Release: rng.Float64() * 4,
				Proc:    0.2 + rng.Float64()*2,
				Set:     set,
			}
		}
		inst := core.NewInstance(m, tasks)
		pruned, err := BruteForce(inst)
		if err != nil {
			return false
		}
		if err := pruned.Validate(); err != nil {
			return false
		}
		want := naiveBruteForce(inst)
		return math.Abs(pruned.MaxFlow()-want) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestBruteForceLargerUnrestricted exercises the symmetry-broken search at
// the new size limit.
func TestBruteForceLargerUnrestricted(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	tasks := make([]core.Task, 16)
	for i := range tasks {
		tasks[i] = core.Task{Release: rng.Float64() * 3, Proc: 0.3 + rng.Float64()}
	}
	inst := core.NewInstance(4, tasks)
	s, err := BruteForce(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if lb := LowerBound(inst); s.MaxFlow() < lb-1e-9 {
		t.Fatalf("optimal %v below lower bound %v", s.MaxFlow(), lb)
	}
	// EFT can't beat the optimum.
	eft, err := sched.NewEFT(sched.MinTie{}).Run(inst)
	if err != nil {
		t.Fatal(err)
	}
	if eft.MaxFlow() < s.MaxFlow()-1e-9 {
		t.Fatalf("EFT %v below claimed optimum %v", eft.MaxFlow(), s.MaxFlow())
	}
}

// quadraticLowerBound is the window scan LowerBound's sweep replaced: for
// every release-group start a and every release-group end b ≥ a, the
// m-machine term and the term of every distinct set, with each task's set
// resolved afresh. O(n²·|sets|); kept as the oracle the sweep is checked
// against.
func quadraticLowerBound(inst *core.Instance) core.Time {
	lb := inst.MaxProc()
	n := inst.N()
	if n == 0 {
		return 0
	}
	sets := inst.Sets()
	full := core.Interval(0, inst.M-1)
	for ai := 0; ai < n; ai++ {
		a := inst.Tasks[ai].Release
		if ai > 0 && a == inst.Tasks[ai-1].Release {
			continue
		}
		work := core.Time(0)
		workSet := make([]core.Time, len(sets))
		for bi := ai; bi < n; bi++ {
			task := inst.Tasks[bi]
			work += task.Proc
			ts := task.Set.Resolve(inst.M)
			for si, s := range sets {
				if ts.SubsetOf(s) {
					workSet[si] += task.Proc
				}
			}
			b := task.Release
			if bi+1 < n && inst.Tasks[bi+1].Release == b {
				continue
			}
			if f := work/core.Time(inst.M) - (b - a); f > lb {
				lb = f
			}
			for si, s := range sets {
				if s.Equal(full) {
					continue
				}
				if f := workSet[si]/core.Time(s.Len()) - (b - a); f > lb {
					lb = f
				}
			}
		}
	}
	return lb
}

// checkAgainstOracle fails unless LowerBound matches the quadratic oracle
// within 1e-12 relative.
func checkAgainstOracle(t *testing.T, name string, inst *core.Instance) {
	t.Helper()
	got, want := LowerBound(inst), quadraticLowerBound(inst)
	if math.Abs(got-want) > 1e-12*math.Abs(want) {
		t.Fatalf("%s (m=%d, n=%d): LowerBound = %.17g, quadratic oracle = %.17g", name, inst.M, inst.N(), got, want)
	}
}

// randomLBInstance draws an instance mixing the set families the bound must
// handle — nil, explicit full, k-rings, nested prefixes and random subsets,
// a random non-empty selection of them per instance — with integer releases
// (ties common) or real ones, unit or real processing times, and a load
// around saturation so windows longer than one task carry the bound.
func randomLBInstance(rng *rand.Rand, m, n int) *core.Instance {
	families := 1 + rng.Intn(31)
	intReleases := rng.Intn(2) == 0
	unit := rng.Intn(2) == 0
	k := 1 + rng.Intn(m)
	load := 0.5 + rng.Float64()
	tasks := make([]core.Task, n)
	r := 0.0
	for i := range tasks {
		p := 1.0
		if !unit {
			p = 0.1 + rng.ExpFloat64()
		}
		if intReleases {
			if rng.Float64() < 1/(float64(m)*load) {
				r += float64(1 + rng.Intn(2))
			}
		} else {
			r += rng.ExpFloat64() / (float64(m) * load)
		}
		family := rng.Intn(5)
		for families&(1<<family) == 0 {
			family = rng.Intn(5)
		}
		var set core.ProcSet
		switch family {
		case 1:
			set = core.Interval(0, m-1)
		case 2:
			set = core.MustRingInterval(rng.Intn(m), k, m)
		case 3:
			set = core.Interval(0, rng.Intn(m))
		case 4:
			var js []int
			for j := 0; j < m; j++ {
				if rng.Intn(2) == 0 {
					js = append(js, j)
				}
			}
			if len(js) == 0 {
				js = append(js, rng.Intn(m))
			}
			set = core.NewProcSet(js...)
		}
		tasks[i] = core.Task{Release: r, Proc: p, Set: set}
	}
	return core.NewInstance(m, tasks)
}

// TestLowerBoundMatchesQuadraticOracle pins the one-pass sweep to the window
// scan it replaced, on random mixed-family instances for m = 1..16, and
// UnrestrictedLowerBound to the scan over the same tasks with every set
// dropped.
func TestLowerBoundMatchesQuadraticOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 400; trial++ {
		m := 1 + rng.Intn(16)
		n := rng.Intn(200)
		inst := randomLBInstance(rng, m, n)
		checkAgainstOracle(t, fmt.Sprintf("random trial %d", trial), inst)

		free := inst.Clone()
		for i := range free.Tasks {
			free.Tasks[i].Set = nil
		}
		got, want := UnrestrictedLowerBound(inst), quadraticLowerBound(free)
		if math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Fatalf("random trial %d: UnrestrictedLowerBound = %.17g, oracle without sets = %.17g", trial, got, want)
		}
	}
}

// TestLowerBoundOracleEdgeCases covers the degenerate shapes: no tasks, one
// machine, and a single release group (every window is [r, r]).
func TestLowerBoundOracleEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	group := func(m, n int, withSets bool) *core.Instance {
		tasks := make([]core.Task, n)
		for i := range tasks {
			tasks[i] = core.Task{Release: 3, Proc: 0.5 + rng.Float64()}
			if withSets {
				tasks[i].Set = core.MustRingInterval(rng.Intn(m), 2, m)
			}
		}
		return core.NewInstance(m, tasks)
	}
	cases := map[string]*core.Instance{
		"empty":                      core.NewInstance(4, nil),
		"one machine":                randomLBInstance(rng, 1, 120),
		"one machine, one task":      core.NewInstance(1, []core.Task{{Release: 2.5, Proc: 1.5}}),
		"single release group":       group(6, 40, false),
		"single restricted group":    group(6, 40, true),
		"single task, explicit full": core.NewInstance(3, []core.Task{{Release: 1, Proc: 2, Set: core.Interval(0, 2)}}),
	}
	for name, inst := range cases {
		checkAgainstOracle(t, name, inst)
	}
	if lb := LowerBound(core.NewInstance(4, nil)); lb != 0 {
		t.Fatalf("empty instance: LowerBound = %v, want 0", lb)
	}
}

// TestLowerBoundMatchesOracleOnAdversaries runs the oracle check on the
// instances the paper's lower-bound adversaries build against EFT-Min.
func TestLowerBoundMatchesOracleOnAdversaries(t *testing.T) {
	eft := func() sched.Online { return sched.NewEFT(sched.MinTie{}) }
	var results []*adversary.Result
	add := func(r *adversary.Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	add(adversary.EFTStream(sched.MinTie{}, 8, 3, 40))
	add(adversary.EFTStream(sched.MaxTie{}, 12, 4, 30))
	add(adversary.EFTStreamPadded(sched.MinTie{}, 8, 3, 20))
	add(adversary.Nested(eft(), 8))
	add(adversary.Inclusive(eft(), 8, 4))
	add(adversary.FixedSizeK(eft(), 9, 3, 3))
	add(adversary.IntervalAnyOnline(eft(), 3))
	for _, r := range results {
		checkAgainstOracle(t, r.Name, r.Inst)
	}
}

// TestLowerBoundAllocsIndependentOfN pins the sweep's allocations to the set
// family: ten times the tasks over the same distinct sets must allocate
// exactly as often.
func TestLowerBoundAllocsIndependentOfN(t *testing.T) {
	ringInstance := func(n int) *core.Instance {
		const m, k = 15, 3
		tasks := make([]core.Task, n)
		for i := range tasks {
			tasks[i] = core.Task{Release: float64(i / 12), Proc: 1, Set: core.MustRingInterval(i%m, k, m)}
		}
		return core.NewInstance(m, tasks)
	}
	small, large := ringInstance(1000), ringInstance(10000)
	a3 := testing.AllocsPerRun(10, func() { LowerBound(small) })
	a4 := testing.AllocsPerRun(10, func() { LowerBound(large) })
	if a3 != a4 {
		t.Fatalf("LowerBound allocates %v times at n=10³ but %v at n=10⁴ over the same sets", a3, a4)
	}
}
