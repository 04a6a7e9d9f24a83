package overload

import (
	"reflect"
	"testing"

	"flowsched/internal/core"
)

// The run arena recycles overload controls across runs, so every stateful
// control must come back bit-for-bit fresh from its reset — a half-cleared
// EWMA or a drifted RNG would silently change later runs' outputs.

func rankCands() []Candidate {
	return []Candidate{
		{ID: 0, Release: 1, Proc: 2, Pos: 0},
		{ID: 1, Release: 5, Proc: 1, Pos: 1},
		{ID: 2, Release: 3, Proc: 4, Pos: 2},
		{ID: 3, Release: 8, Proc: 1, Pos: 3},
		{ID: 4, Release: 2, Proc: 3, Pos: 4},
	}
}

func rankOrder(s *Shedder, now core.Time) []int {
	cands := rankCands()
	s.Rank(now, cands)
	ids := make([]int, len(cands))
	for i, c := range cands {
		ids[i] = c.ID
	}
	return ids
}

// TestShedderResetRandomStream: a used-then-reset DropRandom shedder must
// replay exactly the shuffle stream of a fresh one — the reset re-seeds the
// persistent source instead of allocating a new rand.Rand.
func TestShedderResetRandomStream(t *testing.T) {
	fresh := &Shedder{Policy: DropRandom, Watermark: 1, Seed: 42}
	var want [][]int
	for i := 0; i < 3; i++ {
		want = append(want, rankOrder(fresh, 10))
	}

	used := &Shedder{Policy: DropRandom, Watermark: 1, Seed: 42}
	for i := 0; i < 7; i++ { // drift the stream
		rankOrder(used, 10)
	}
	used.reset()
	for i := 0; i < 3; i++ {
		if got := rankOrder(used, 10); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("shuffle %d after reset = %v, fresh = %v", i, got, want[i])
		}
	}
}

// TestShedderRankNoAlloc pins the trim path's cost: after the first call the
// policy sorts rank candidates with zero allocations (persistent
// sort.Interface value, no closure-per-call sort.Slice).
func TestShedderRankNoAlloc(t *testing.T) {
	for _, pol := range []ShedPolicy{DropOldest, DropNewest, DropLargestStretch} {
		s := &Shedder{Policy: pol, Watermark: 1}
		cands := rankCands()
		s.Rank(20, cands) // warm
		allocs := testing.AllocsPerRun(10, func() {
			s.Rank(20, cands)
		})
		if allocs != 0 {
			t.Fatalf("%v: Rank allocated %.1f times per call; want 0", pol, allocs)
		}
	}
}

// TestShedderRankPolicies sanity-checks the persistent comparator against
// the documented policy orders (first-ranked is dropped first).
func TestShedderRankPolicies(t *testing.T) {
	cases := []struct {
		pol  ShedPolicy
		want []int
	}{
		{DropOldest, []int{0, 1, 2, 3, 4}},         // queue position ascending
		{DropNewest, []int{4, 3, 2, 1, 0}},         // queue position descending
		{DropLargestStretch, []int{1, 0, 4, 3, 2}}, // (now−Release)/Proc descending, ties by position
	}
	for _, tc := range cases {
		s := &Shedder{Policy: tc.pol, Watermark: 1}
		if got := rankOrder(s, 10); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%v: order %v, want %v", tc.pol, got, tc.want)
		}
	}
}

// TestEjectorResetBitForBit: an ejector that observed a run and ejected
// servers must be indistinguishable after reset from one that never ran.
func TestEjectorResetBitForBit(t *testing.T) {
	fresh := &Ejector{}
	fresh.reset(5)

	used := &Ejector{}
	used.reset(5)
	for i := 0; i < 60; i++ {
		used.Observe(i%5, 1+float64(i%7), core.Time(i))
	}
	used.Observe(2, 50, 61) // a clear outlier to flip ejected state
	used.Readmit(1e9, func(int) {})
	used.reset(5)

	if !reflect.DeepEqual(fresh, used) {
		t.Fatalf("used+reset ejector differs from fresh:\nfresh %+v\nused  %+v", fresh, used)
	}
}

// TestEstimatorResetBitForBit: the capacity guard's arrival tracker (the
// inter-arrival EWMA and the brownout latch) must clear completely.
func TestEstimatorResetBitForBit(t *testing.T) {
	fresh := NewEstimatorCapacity(10)
	used := NewEstimatorCapacity(10)
	for i := 0; i < 50; i++ {
		used.Observe(core.Time(i) * 0.01)
	}
	used.Reset()
	if !reflect.DeepEqual(fresh, used) {
		t.Fatalf("used+Reset estimator differs from fresh:\nfresh %+v\nused  %+v", fresh, used)
	}
}
