package offline

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"flowsched/internal/adversary"
	"flowsched/internal/core"
	"flowsched/internal/sched"
)

// stringKeyIndex is the set index indexSets replaced: every task's set is
// varint-encoded into a byte key and looked up in a map[string]int32. Kept
// as the oracle indexSets is checked against, superset lists included.
func stringKeyIndex(inst *core.Instance) ([]int32, []distinctSet) {
	procSets := []core.ProcSet{core.Interval(0, inst.M-1)}
	ids := make(map[string]int32)
	var key []byte
	encode := func(s core.ProcSet) []byte {
		key = key[:0]
		for _, j := range s {
			key = binary.AppendUvarint(key, uint64(j))
		}
		return key
	}
	ids[string(encode(procSets[0]))] = 0
	idx := make([]int32, inst.N())
	for i, t := range inst.Tasks {
		if t.Set == nil {
			continue
		}
		k := encode(t.Set)
		id, ok := ids[string(k)]
		if !ok {
			id = int32(len(procSets))
			ids[string(k)] = id
			procSets = append(procSets, t.Set)
		}
		idx[i] = id
	}
	sets := make([]distinctSet, len(procSets))
	for ti, t := range procSets {
		supersets := []int32{0}
		for si := 1; si < len(procSets); si++ {
			if si == ti || t.SubsetOf(procSets[si]) {
				supersets = append(supersets, int32(si))
			}
		}
		sets[ti] = distinctSet{size: core.Time(len(t)), min: math.Inf(1), group: -1, supersets: supersets}
	}
	return idx, sets
}

// groupSweep is the sweep before windows were closed lazily: the sets a
// release group touched are listed, and each is evaluated when the group
// ends. Kept as the oracle for sweep.
func groupSweep(inst *core.Instance, idx []int32, sets []distinctSet) core.Time {
	var lb core.Time
	touched := make([]int32, 0, len(sets))
	tasks := inst.Tasks
	for i := 0; i < len(tasks); {
		g, r := i, tasks[i].Release
		touched = touched[:0]
		for ; i < len(tasks) && tasks[i].Release == r; i++ {
			p := tasks[i].Proc
			if p > lb {
				lb = p
			}
			var t int32
			if idx != nil {
				t = idx[i]
			}
			for _, s := range sets[t].supersets {
				d := &sets[s]
				if d.group != g {
					d.group = g
					if v := d.work - d.size*r; v < d.min {
						d.min = v
					}
					touched = append(touched, s)
				}
				d.work += p
			}
		}
		for _, s := range touched {
			d := &sets[s]
			if f := (d.work - d.size*r - d.min) / d.size; f > lb {
				lb = f
			}
		}
	}
	return lb
}

// checkIndexParity fails unless indexSets builds the oracle's index — the
// same set per task, the same sets in the same order with the same superset
// lists — and LowerBound equals, bit for bit, both the lazy sweep and the
// group sweep over the oracle's index.
func checkIndexParity(t *testing.T, name string, inst *core.Instance) {
	t.Helper()
	if inst.N() == 0 {
		return
	}
	gotIdx, gotSets := indexSets(inst)
	wantIdx, wantSets := stringKeyIndex(inst)
	if !reflect.DeepEqual(gotIdx, wantIdx) {
		for i := range gotIdx {
			if gotIdx[i] != wantIdx[i] {
				t.Fatalf("%s: task %d (set %v) indexed %d, oracle %d", name, i, inst.Tasks[i].Set, gotIdx[i], wantIdx[i])
			}
		}
	}
	if len(gotSets) != len(wantSets) {
		t.Fatalf("%s: %d distinct sets, oracle %d", name, len(gotSets), len(wantSets))
	}
	for s := range gotSets {
		g, w := gotSets[s], wantSets[s]
		if g.size != w.size || !reflect.DeepEqual(g.supersets, w.supersets) {
			t.Fatalf("%s: set %d has size %v, supersets %v; oracle %v, %v", name, s, g.size, g.supersets, w.size, w.supersets)
		}
	}
	got := LowerBound(inst)
	lazy := sweep(inst, wantIdx, wantSets)
	_, fresh := stringKeyIndex(inst)
	grouped := groupSweep(inst, wantIdx, fresh)
	if math.Float64bits(got) != math.Float64bits(lazy) || math.Float64bits(got) != math.Float64bits(grouped) {
		t.Fatalf("%s: LowerBound = %.17g, sweep over the oracle index %.17g, group sweep %.17g", name, got, lazy, grouped)
	}
}

// checkRingMemo fails unless indexSets' memo misses once per distinct ring
// of inst, a ring-only instance: every ring has its own memoKey, so no two
// rings evict each other. It replays the memo, the last set seen by key,
// and counts the tasks that miss it.
func checkRingMemo(t *testing.T, name string, inst *core.Instance) {
	t.Helper()
	last := make([]core.ProcSet, inst.M)
	misses := 0
	for _, task := range inst.Tasks {
		if key := memoKey(task.Set); last[key] == nil || !last[key].Equal(task.Set) {
			misses++
			last[key] = task.Set
		}
	}
	_, sets := indexSets(inst)
	if rings := len(sets) - 1; misses != rings { // set 0 is the full set, which no ring is
		t.Errorf("%s: %d memo misses over %d rings", name, misses, rings)
	}
}

// ringM0Instance interleaves the three k = 3 rings of m = 15 whose first
// member is machine 0 — {0,1,2}, {0,1,14} and {0,13,14} — with the other
// rings, so a memo keyed on the first member would keep missing.
func ringM0Instance(rng *rand.Rand, n int) *core.Instance {
	const m = 15
	starts := []int{0, 14, 13}
	tasks := make([]core.Task, n)
	r := 0.0
	for i := range tasks {
		r += rng.ExpFloat64() / 12
		u := starts[rng.Intn(3)]
		if rng.Intn(3) == 0 {
			u = rng.Intn(m)
		}
		tasks[i] = core.Task{Release: r, Proc: 0.5 + rng.Float64(), Set: core.MustRingInterval(u, 3, m)}
	}
	return core.NewInstance(m, tasks)
}

// distinctSetsInstance gives nearly every task its own random set, so the
// index grows to about n sets and the hash chains are walked.
func distinctSetsInstance(rng *rand.Rand, m, n int) *core.Instance {
	tasks := make([]core.Task, n)
	r := 0.0
	for i := range tasks {
		r += rng.ExpFloat64() / float64(m)
		var js []int
		for j := 0; j < m; j++ {
			if rng.Intn(2) == 0 {
				js = append(js, j)
			}
		}
		if len(js) == 0 {
			js = append(js, rng.Intn(m))
		}
		tasks[i] = core.Task{Release: r, Proc: 0.1 + rng.ExpFloat64(), Set: core.NewProcSet(js...)}
		if rng.Intn(8) == 0 && i > 0 {
			tasks[i].Set = tasks[rng.Intn(i)].Set.Clone() // an equal set in a new slice
		}
	}
	return core.NewInstance(m, tasks)
}

// fullMixInstance mixes nil sets, explicit full sets and a few proper ones.
func fullMixInstance(rng *rand.Rand, m, n int) *core.Instance {
	tasks := make([]core.Task, n)
	for i := range tasks {
		tasks[i] = core.Task{Release: float64(i / (2 * m)), Proc: 1}
		switch rng.Intn(4) {
		case 0:
			tasks[i].Set = core.Interval(0, m-1)
		case 1:
			tasks[i].Set = core.MustRingInterval(rng.Intn(m), 1+rng.Intn(m), m)
		}
	}
	return core.NewInstance(m, tasks)
}

// TestIndexSetsMatchesStringKeys holds indexSets and the lazy sweep to the
// string-keyed index and the group sweep on every instance family the
// offline tests use, the adversaries' instances, instances with about n
// distinct sets, the three rings of m = 15 that start at machine 0
// interleaved, and explicit full sets mixed with nil.
func TestIndexSetsMatchesStringKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(16)
		checkIndexParity(t, fmt.Sprintf("mixed families %d", trial), randomLBInstance(rng, m, rng.Intn(200)))
	}
	for trial := 0; trial < 40; trial++ {
		checkIndexParity(t, fmt.Sprintf("unit %d", trial), randomUnitInstance(rng, 1+rng.Intn(6), 1+rng.Intn(60)))
		checkIndexParity(t, fmt.Sprintf("distinct sets %d", trial), distinctSetsInstance(rng, 2+rng.Intn(20), 1+rng.Intn(300)))
		name := fmt.Sprintf("rings at machine 0 %d", trial)
		rings := ringM0Instance(rng, 1+rng.Intn(500))
		checkIndexParity(t, name, rings)
		checkRingMemo(t, name, rings)
		checkIndexParity(t, fmt.Sprintf("full and nil %d", trial), fullMixInstance(rng, 1+rng.Intn(12), 1+rng.Intn(200)))
	}
	ring := func(n int) *core.Instance {
		const m, k = 15, 3
		tasks := make([]core.Task, n)
		for i := range tasks {
			tasks[i] = core.Task{Release: float64(i / 12), Proc: 1, Set: core.MustRingInterval(i%m, k, m)}
		}
		return core.NewInstance(m, tasks)
	}
	checkIndexParity(t, "k-ring round robin", ring(3000))
	checkRingMemo(t, "k-ring round robin", ring(3000))
	checkIndexParity(t, "one machine, one task", core.NewInstance(1, []core.Task{{Release: 2.5, Proc: 1.5}}))
	checkIndexParity(t, "single task, explicit full", core.NewInstance(3, []core.Task{{Release: 1, Proc: 2, Set: core.Interval(0, 2)}}))

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
		checkIndexParity(t, r.Name, r.Inst)
	}
}

// TestIndexSetsExplicitFullIsZero: nil and explicit full sets share index
// 0, and equal sets in different slices share one index.
func TestIndexSetsExplicitFullIsZero(t *testing.T) {
	inst := core.NewInstance(4, []core.Task{
		{Release: 0, Proc: 1, Set: core.NewProcSet(1, 2)},
		{Release: 0, Proc: 1, Set: core.Interval(0, 3)},
		{Release: 1, Proc: 1},
		{Release: 1, Proc: 1, Set: core.NewProcSet(2, 1)},
	})
	idx, sets := indexSets(inst)
	if want := []int32{1, 0, 0, 1}; !reflect.DeepEqual(idx, want) || len(sets) != 2 {
		t.Fatalf("index %v over %d sets, want %v over 2", idx, len(sets), want)
	}
}

// TestLowerBoundUnvalidatedSets: LowerBound does not validate. On an empty
// set, members out of range on either side, unsorted or repeated members,
// it returns what the string-keyed index and the group sweep return, and
// the first-member memo never indexes an empty set or an out-of-range
// member.
func TestLowerBoundUnvalidatedSets(t *testing.T) {
	sets := []core.ProcSet{
		{},
		{-1},
		{-3, 2},
		{15},
		{2, 40},
		{3, 1},
		{1, 1},
		{0, 1, 2},
		{0, 1, 14},
		{0, 13, 14},
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		tasks := make([]core.Task, n)
		r := 0.0
		for i := range tasks {
			r += float64(rng.Intn(2))
			tasks[i] = core.Task{Release: r, Proc: 0.5 + rng.Float64()}
			if rng.Intn(4) > 0 {
				tasks[i].Set = sets[rng.Intn(len(sets))]
			}
		}
		checkIndexParity(t, fmt.Sprintf("unvalidated %d", trial), core.NewInstance(15, tasks))
	}
}
