// Package offline provides optimal baselines and lower bounds for the
// offline problem P|r_i,M_i|Fmax, used to measure empirical competitive
// ratios:
//
//   - LowerBound: a certified lower bound on the optimal Fmax (interval
//     work arguments plus p_max), computed in one sweep over the tasks;
//   - BruteForce: the exact optimum for small instances by exhaustive
//     assignment search (each machine runs its tasks in FIFO order, which
//     is optimal per machine);
//   - UnitOptimal: the exact optimum for unit tasks with integer releases,
//     by binary search on F with a bipartite matching feasibility oracle
//     over (machine, time-slot) pairs — the polynomial special case noted
//     in Section 6.
package offline

import (
	"fmt"
	"math"
	"sort"

	"flowsched/internal/core"
	"flowsched/internal/maxflow"
)

// LowerBound returns a certified lower bound on the optimal maximum flow
// time. It combines:
//
//	F ≥ max_i p_i                                       (bound (3));
//	F ≥ work released in [a,b] / m − (b − a)            (interval bound);
//	F ≥ work of tasks restricted to S in [a,b] / |S| − (b − a)
//	                                                    (per-set bound),
//
// where [a,b] ranges over pairs of release times and S over the distinct
// processing sets of the instance; the interval bound is the per-set bound
// of the full machine set. With P_S(t) the work of the tasks restricted to S
// released up to t, the best window of S ending at b is worth
//
//	(P_S(b) − |S|·b − min_{a ≤ b} [P_S(a⁻) − |S|·a]) / |S|,
//
// so one sweep over the tasks in release order, keeping P_S and that running
// minimum per set, replaces the scan over all windows. Only release groups
// holding a task restricted to S can open or close S's best window, so each
// task updates just the sets containing its own. The cost is O(n·c +
// |sets|²·m) time, c the number of distinct sets containing a task's set (2
// for the paper's k-rings); the allocations depend on the distinct sets,
// not on n.
func LowerBound(inst *core.Instance) core.Time {
	if inst.N() == 0 {
		return 0
	}
	idx, sets := indexSets(inst)
	return sweep(inst, idx, sets)
}

// UnrestrictedLowerBound is LowerBound without the per-set terms: p_max and
// the m-machine interval bound. It holds for every schedule on at most m
// machines, whichever machine each task ran on, so it still bounds runs that
// route tasks outside their static processing sets (elastic membership).
func UnrestrictedLowerBound(inst *core.Instance) core.Time {
	return sweep(inst, nil, []distinctSet{{size: core.Time(inst.M), min: math.Inf(1), group: -1, supersets: []int32{0}}})
}

// distinctSet is one distinct processing set S in the LowerBound sweep.
type distinctSet struct {
	size      core.Time // |S|
	work      core.Time // P_S: work of the tasks restricted to S released so far
	min       core.Time // min of P_S(a⁻) − |S|·a over S's release-group starts a
	group     int       // first task of the last release group that touched S
	r         core.Time // that group's release
	supersets []int32   // the distinct sets containing S, the full set first
}

// window is S's best window ending at the release group that touched it
// last: (P_S(r) − |S|·r − min) / |S|.
func (d *distinctSet) window() core.Time { return (d.work - d.size*d.r - d.min) / d.size }

// indexSets maps every task to the index of its distinct processing set —
// 0 is the full machine set, shared by nil and explicit full sets — and
// builds the sets, in order of first occurrence, with their superset lists.
// Set 0 heads every list: the m-machine interval bound counts every task.
//
// No key is built per task. The last distinct set seen with the task's
// memo key (memoKey) is tried first: every set of a k-ring family has its
// own key, so this memo misses once per distinct set. On a miss the set's
// hash finds the distinct sets that share it, chained newest first through
// chain. A hash only shortlists; ProcSet.Equal decides every match, so
// equal sets share one index and a collision costs a compare, never a wrong
// index. The memo is consulted only for a non-empty set whose key is in
// range, as LowerBound takes unvalidated instances.
func indexSets(inst *core.Instance) ([]int32, []distinctSet) {
	m := inst.M
	procSets := []core.ProcSet{core.Interval(0, m-1)}
	byHash := map[uint64]int32{hashSet(procSets[0]): 0} // a hash → its newest set
	chain := []int32{-1}                                // the set before id with id's hash, or −1
	byKey := make([]int32, m)                           // 1 + the last set seen by memo key; 0 for none
	idx := make([]int32, inst.N())
	for i := range inst.Tasks {
		set := inst.Tasks[i].Set
		if set == nil {
			continue // the full set, index 0
		}
		key := -1
		if len(set) > 0 {
			if key = memoKey(set); uint(key) >= uint(m) {
				key = -1
			} else if c := byKey[key] - 1; c >= 0 && procSets[c].Equal(set) {
				idx[i] = c
				continue
			}
		}
		h := hashSet(set)
		id, ok := byHash[h]
		if !ok {
			id = -1
		}
		head := id
		for id >= 0 && !procSets[id].Equal(set) {
			id = chain[id]
		}
		if id < 0 {
			id = int32(len(procSets))
			byHash[h] = id
			chain = append(chain, head)
			procSets = append(procSets, set)
		}
		if key >= 0 {
			byKey[key] = id + 1
		}
		idx[i] = id
	}

	// All superset lists share one backing array: each list is complete
	// before the next starts, so a list cut from an outgrown array keeps
	// its contents.
	sets := make([]distinctSet, len(procSets))
	var lists []int32
	for ti, t := range procSets {
		from := len(lists)
		lists = append(lists, 0)
		for si := 1; si < len(procSets); si++ {
			if si == ti || t.SubsetOf(procSets[si]) {
				lists = append(lists, int32(si))
			}
		}
		sets[ti] = distinctSet{size: core.Time(len(t)), min: math.Inf(1), group: -1, supersets: lists[from:len(lists):len(lists)]}
	}
	return idx, sets
}

// memoKey is indexSets' memo key of a non-empty set: its member after the
// first gap (a member more than one above the one before it), or its first
// member when it has no gap. On a ring of m machines that is the start u of
// the circular interval I_k(u), so the wrapping sets {0,1,2}, {0,1,14} and
// {0,13,14} of k = 3, m = 15, which share first member 0, get the keys 0,
// 14 and 13.
func memoKey(s core.ProcSet) int {
	for x := 1; x < len(s); x++ {
		if s[x] > s[x-1]+1 {
			return s[x]
		}
	}
	return s[0]
}

// hashSet is FNV-1a over a set's members, the shortlist key of indexSets.
func hashSet(s core.ProcSet) uint64 {
	h := uint64(14695981039346656037)
	for _, j := range s {
		h = (h ^ uint64(j)) * 1099511628211
	}
	return h
}

// sweep evaluates the bounds in one pass over the tasks in release order;
// idx[i] is task i's index into sets (nil puts every task in set 0). A
// set's window ending at the group that touched it last is evaluated when
// the next group touches it, or after the pass: its work and that group's
// release r are unchanged in between.
func sweep(inst *core.Instance, idx []int32, sets []distinctSet) core.Time {
	var lb core.Time
	tasks := inst.Tasks
	for i := 0; i < len(tasks); {
		g, r := i, tasks[i].Release
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
					if d.group >= 0 {
						if f := d.window(); f > lb {
							lb = f
						}
					}
					// r starts a window of S: P_S(r⁻) is the work before this group.
					d.group, d.r = g, r
					if v := d.work - d.size*r; v < d.min {
						d.min = v
					}
				}
				d.work += p
			}
		}
	}
	for s := range sets {
		if d := &sets[s]; d.group >= 0 {
			if f := d.window(); f > lb {
				lb = f
			}
		}
	}
	return lb
}

// MaxBruteForceTasks bounds the instance size accepted by BruteForce.
const MaxBruteForceTasks = 16

// BruteForce computes the exact optimal Fmax (and an optimal schedule) by
// exhaustive search over task-to-machine assignments with branch-and-bound.
// Given an assignment, running each machine's tasks in release order without
// idling is optimal (FIFO is optimal on a single machine), so only
// assignments are enumerated. Pruning: the EFT schedule seeds the incumbent,
// branches are explored in order of resulting flow, the certified LowerBound
// stops the search as soon as the incumbent matches it, and
// identical-completion machines are tried only once per node (they are
// interchangeable: swapping two machines' whole futures preserves
// feasibility and flows for unrestricted tasks, and a machine's identity
// only matters through its completion time and membership in the task's
// set, which the eligible-candidate filtering already accounts for before
// the symmetry check).
//
// Instances larger than MaxBruteForceTasks tasks are rejected.
func BruteForce(inst *core.Instance) (*core.Schedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if inst.N() > MaxBruteForceTasks {
		return nil, fmt.Errorf("offline: %d tasks exceed brute-force limit %d", inst.N(), MaxBruteForceTasks)
	}
	n := inst.N()
	lb := LowerBound(inst)

	// Symmetry breaking on identical-completion machines is only valid when
	// machines are interchangeable for every remaining task, i.e. the
	// instance is unrestricted.
	unrestricted := true
	for _, t := range inst.Tasks {
		if t.Set != nil && !t.Set.Equal(core.Interval(0, inst.M-1)) {
			unrestricted = false
			break
		}
	}

	bestF := math.Inf(1)
	bestMach := make([]int, n)
	bestStart := make([]core.Time, n)

	// Seed the incumbent with EFT-Min (computed inline to avoid an import
	// cycle with sched): it is feasible, so bestF starts tight.
	{
		completion := make([]core.Time, inst.M)
		f := core.Time(0)
		for i, task := range inst.Tasks {
			best := -1
			for j := 0; j < inst.M; j++ {
				if !task.Eligible(j) {
					continue
				}
				if best == -1 || completion[j] < completion[best] {
					best = j
				}
			}
			start := completion[best]
			if task.Release > start {
				start = task.Release
			}
			completion[best] = start + task.Proc
			bestMach[i] = best
			bestStart[i] = start
			if fl := start + task.Proc - task.Release; fl > f {
				f = fl
			}
		}
		bestF = f
	}

	curMach := make([]int, n)
	curStart := make([]core.Time, n)
	completion := make([]core.Time, inst.M)
	type cand struct {
		j    int
		f    core.Time
		strt core.Time
	}
	candBuf := make([][]cand, n)
	for i := range candBuf {
		candBuf[i] = make([]cand, 0, inst.M)
	}

	var dfs func(i int, curF core.Time)
	dfs = func(i int, curF core.Time) {
		if curF >= bestF || bestF <= lb+1e-12 {
			return // prune: flows only grow / incumbent already optimal
		}
		if i == n {
			bestF = curF
			copy(bestMach, curMach)
			copy(bestStart, curStart)
			return
		}
		task := inst.Tasks[i]
		cands := candBuf[i][:0]
		consider := func(j int) {
			start := completion[j]
			if task.Release > start {
				start = task.Release
			}
			f := curF
			if flow := start + task.Proc - task.Release; flow > f {
				f = flow
			}
			cands = append(cands, cand{j: j, f: f, strt: start})
		}
		if task.Set == nil {
			for j := 0; j < inst.M; j++ {
				consider(j)
			}
		} else {
			for _, j := range task.Set {
				consider(j)
			}
		}
		// Symmetry: among eligible machines with the same completion time
		// (hence same start and flow), keep one representative. Valid only
		// for fully unrestricted instances.
		if unrestricted {
			kept := cands[:0]
			for _, c := range cands {
				dup := false
				for _, k := range kept {
					if completion[k.j] == completion[c.j] {
						dup = true
						break
					}
				}
				if !dup {
					kept = append(kept, c)
				}
			}
			cands = kept
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].f < cands[b].f })
		for _, c := range cands {
			if c.f >= bestF {
				break // sorted: the rest are no better
			}
			saved := completion[c.j]
			completion[c.j] = c.strt + task.Proc
			curMach[i] = c.j
			curStart[i] = c.strt
			dfs(i+1, c.f)
			completion[c.j] = saved
		}
	}
	dfs(0, 0)

	s := core.NewSchedule(inst)
	for i := 0; i < n; i++ {
		s.Assign(i, bestMach[i], bestStart[i])
	}
	return s, nil
}

// UnitOptimal computes the exact optimal Fmax for an instance of unit tasks
// with integer release times: the smallest integer F such that every task
// can be matched to a free (machine, slot) pair with slot ∈ [r_i, r_i+F-1],
// found by binary search with a max-flow feasibility oracle. hi must be a
// known achievable Fmax (e.g. from any heuristic schedule); pass 0 to use
// the trivial bound n.
func UnitOptimal(inst *core.Instance, hi int) (core.Time, error) {
	if err := inst.Validate(); err != nil {
		return 0, err
	}
	if inst.N() == 0 {
		return 0, nil
	}
	if !inst.UnitTasks() {
		return 0, fmt.Errorf("offline: UnitOptimal requires unit tasks")
	}
	for _, t := range inst.Tasks {
		if t.Release != math.Trunc(t.Release) {
			return 0, fmt.Errorf("offline: UnitOptimal requires integer release times, got %v", t.Release)
		}
	}
	if hi <= 0 {
		hi = inst.N()
	}
	lo := 1
	if !unitFeasible(inst, hi) {
		return 0, fmt.Errorf("offline: claimed upper bound F=%d is not feasible", hi)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if unitFeasible(inst, mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return core.Time(lo), nil
}

// unitFeasible reports whether all unit tasks can complete with flow ≤ F.
func unitFeasible(inst *core.Instance, F int) bool {
	n := inst.N()
	type slot struct{ j, t int }
	slotID := make(map[slot]int)
	// Nodes: 0 = source, 1..n = tasks, then slots, then sink.
	var edges []struct {
		task int
		s    slot
	}
	for i, task := range inst.Tasks {
		r := int(task.Release)
		set := task.Set.Resolve(inst.M)
		for _, j := range set {
			for t := r; t <= r+F-1; t++ {
				key := slot{j, t}
				if _, ok := slotID[key]; !ok {
					slotID[key] = len(slotID)
				}
				edges = append(edges, struct {
					task int
					s    slot
				}{i, key})
			}
		}
	}
	numNodes := 1 + n + len(slotID) + 1
	src := 0
	sink := numNodes - 1
	g := maxflow.NewGraph(numNodes)
	for i := 0; i < n; i++ {
		g.AddEdge(src, 1+i, 1)
	}
	slotNode := func(s slot) int { return 1 + n + slotID[s] }
	added := make(map[int]bool)
	for _, e := range edges {
		g.AddEdge(1+e.task, slotNode(e.s), 1)
		if !added[slotNode(e.s)] {
			g.AddEdge(slotNode(e.s), sink, 1)
			added[slotNode(e.s)] = true
		}
	}
	r := g.Run(src, sink)
	return r.Value >= float64(n)-1e-9
}
