package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewProcSetNormalizes(t *testing.T) {
	s := NewProcSet(3, 1, 2, 1, 3)
	want := ProcSet{1, 2, 3}
	if !s.Equal(want) {
		t.Fatalf("NewProcSet = %v, want %v", s, want)
	}
}

func TestNewProcSetNil(t *testing.T) {
	if s := NewProcSet(); s == nil || len(s) != 0 {
		t.Fatalf("NewProcSet() should be empty non-nil, got %#v", s)
	}
	var none []int
	if s := NewProcSet(none...); s == nil || len(s) != 0 {
		t.Fatalf("NewProcSet(nil...) should be empty non-nil, got %#v", s)
	}
}

func TestInterval(t *testing.T) {
	s := Interval(2, 5)
	if !s.Equal(ProcSet{2, 3, 4, 5}) {
		t.Fatalf("Interval(2,5) = %v", s)
	}
	if !s.IsContiguous() {
		t.Fatalf("Interval(2,5) should be contiguous")
	}
	one := Interval(4, 4)
	if !one.Equal(ProcSet{4}) {
		t.Fatalf("Interval(4,4) = %v", one)
	}
}

func TestIntervalPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Interval(5,2) should panic")
		}
	}()
	Interval(5, 2)
}

func TestRingInterval(t *testing.T) {
	// Paper Figure 9: m=6, k=3; overlapping set of M5 (0-based 4) is
	// {M5,M6,M1} = {0,4,5}.
	s, err := RingInterval(4, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(ProcSet{0, 4, 5}) {
		t.Fatalf("RingInterval(4,3,6) = %v, want {0,4,5}", s)
	}
	if !s.IsCircularInterval(6) {
		t.Fatalf("ring interval should be a circular interval")
	}
	if s.IsContiguous() {
		t.Fatalf("wrap-around set should not be contiguous")
	}
	// Non-wrapping case.
	s2 := MustRingInterval(2, 3, 6)
	if !s2.Equal(ProcSet{2, 3, 4}) {
		t.Fatalf("RingInterval(2,3,6) = %v", s2)
	}
}

func TestRingIntervalInvalid(t *testing.T) {
	// k outside [1, m] — e.g. a scale-down below the replication factor —
	// is an error, not a panic.
	for _, tc := range []struct{ start, k, m int }{
		{0, 4, 3}, {0, 0, 3}, {0, -1, 3}, {0, 1, 0},
	} {
		if s, err := RingInterval(tc.start, tc.k, tc.m); err == nil {
			t.Errorf("RingInterval(%d,%d,%d) = %v, want error", tc.start, tc.k, tc.m, s)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("MustRingInterval(0,4,3) should panic")
		}
	}()
	MustRingInterval(0, 4, 3)
}

func TestContains(t *testing.T) {
	s := NewProcSet(1, 3, 5)
	for _, j := range []int{1, 3, 5} {
		if !s.Contains(j) {
			t.Errorf("Contains(%d) = false", j)
		}
	}
	for _, j := range []int{0, 2, 4, 6, -1} {
		if s.Contains(j) {
			t.Errorf("Contains(%d) = true", j)
		}
	}
	if !AllMachines.Contains(42) {
		t.Errorf("unrestricted set should contain everything")
	}
}

func TestSubsetOf(t *testing.T) {
	a := NewProcSet(1, 2)
	b := NewProcSet(0, 1, 2, 3)
	if !a.SubsetOf(b) {
		t.Errorf("{1,2} should be subset of {0..3}")
	}
	if b.SubsetOf(a) {
		t.Errorf("{0..3} should not be subset of {1,2}")
	}
	if !a.SubsetOf(nil) {
		t.Errorf("every set is subset of unrestricted")
	}
	if ProcSet(nil).SubsetOf(a) {
		t.Errorf("unrestricted is not subset of finite set")
	}
	if !(ProcSet{}).SubsetOf(a) {
		t.Errorf("empty set is subset of everything")
	}
}

func TestIntersectUnionMinus(t *testing.T) {
	a := NewProcSet(1, 2, 3)
	b := NewProcSet(3, 4)
	if got := a.Intersect(b); !got.Equal(ProcSet{3}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Union(b); !got.Equal(ProcSet{1, 2, 3, 4}) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Minus(b); !got.Equal(ProcSet{1, 2}) {
		t.Errorf("Minus = %v", got)
	}
	if !a.Intersects(b) {
		t.Errorf("{1,2,3} intersects {3,4}")
	}
	if a.Intersects(NewProcSet(5, 6)) {
		t.Errorf("{1,2,3} does not intersect {5,6}")
	}
}

func TestIsCircularInterval(t *testing.T) {
	cases := []struct {
		s    ProcSet
		m    int
		want bool
	}{
		{NewProcSet(0, 1, 2), 6, true},
		{NewProcSet(0, 5), 6, true},        // wrap {5,0}
		{NewProcSet(0, 1, 5), 6, true},     // wrap {5,0,1}
		{NewProcSet(0, 2), 6, false},       // gap, no wrap form
		{NewProcSet(0, 2, 4), 6, false},    // alternating
		{Interval(0, 5), 6, true},          // full ring
		{NewProcSet(1, 2, 4, 5), 6, false}, // two arcs not touching 0
		{ProcSet{}, 6, false},
	}
	for _, c := range cases {
		if got := c.s.IsCircularInterval(c.m); got != c.want {
			t.Errorf("IsCircularInterval(%v, m=%d) = %v, want %v", c.s, c.m, got, c.want)
		}
	}
}

// isCircularIntervalOracle is the complement-based definition of
// IsCircularInterval: a non-contiguous set is a ring interval when the
// machines it leaves out of 0..m-1 are contiguous.
func isCircularIntervalOracle(s ProcSet, m int) bool {
	if len(s) == 0 || len(s) > m {
		return false
	}
	if s.IsContiguous() {
		return true
	}
	comp := Interval(0, m-1).Minus(s)
	return len(comp) == 0 || comp.IsContiguous()
}

// TestIsCircularIntervalMatchesOracle checks the gap-counting test against
// the complement definition on random normalized sets, members off the ring
// [0, m) included, for m = 1..12.
func TestIsCircularIntervalMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for m := 1; m <= 12; m++ {
		for trial := 0; trial < 2000; trial++ {
			members := make([]int, rng.Intn(m+2))
			for i := range members {
				members[i] = rng.Intn(m+4) - 2 // mostly in [0, m), sometimes off the ring
			}
			s := NewProcSet(members...)
			if got, want := s.IsCircularInterval(m), isCircularIntervalOracle(s, m); got != want {
				t.Fatalf("IsCircularInterval(%v, m=%d) = %v, oracle %v", s, m, got, want)
			}
		}
		// Every ring interval, whatever its start and size.
		for u := 0; u < m; u++ {
			for k := 1; k <= m; k++ {
				s := MustRingInterval(u, k, m)
				if !s.IsCircularInterval(m) || !isCircularIntervalOracle(s, m) {
					t.Fatalf("ring interval %v (u=%d, k=%d, m=%d) not recognized", s, u, k, m)
				}
			}
		}
	}
}

// TestIsCircularIntervalAllocs pins the ring-interval test at zero
// allocations for sets on the ring: elastic.RingStart runs it for every
// task of a run.
func TestIsCircularIntervalAllocs(t *testing.T) {
	sets := []ProcSet{NewProcSet(0, 1, 11), NewProcSet(0, 2, 4), NewProcSet(3, 4, 5), NewProcSet(0, 5, 6, 11)}
	allocs := testing.AllocsPerRun(100, func() {
		for _, s := range sets {
			s.IsCircularInterval(12)
		}
	})
	if allocs != 0 {
		t.Fatalf("IsCircularInterval allocated %.1f times per call batch, want 0", allocs)
	}
}

func TestProcSetString(t *testing.T) {
	if got := NewProcSet(0, 1).String(); got != "{M1,M2}" {
		t.Errorf("String = %q", got)
	}
	if got := AllMachines.String(); got != "{*}" {
		t.Errorf("nil String = %q", got)
	}
}

// randomSet draws a random subset of 0..m-1 for property tests.
func randomSet(rng *rand.Rand, m int) ProcSet {
	var ids []int
	for j := 0; j < m; j++ {
		if rng.Intn(2) == 0 {
			ids = append(ids, j)
		}
	}
	return NewProcSet(ids...)
}

func TestProcSetProperties(t *testing.T) {
	const m = 12
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomSet(rng, m), randomSet(rng, m)
		inter := a.Intersect(b)
		uni := a.Union(b)
		// Intersection is subset of both; both are subsets of the union.
		if !inter.SubsetOf(a) || !inter.SubsetOf(b) {
			return false
		}
		if !a.SubsetOf(uni) || !b.SubsetOf(uni) {
			return false
		}
		// |A| + |B| = |A∪B| + |A∩B|.
		if len(a)+len(b) != len(uni)+len(inter) {
			return false
		}
		// Minus/intersect partition a.
		if len(a.Minus(b))+len(inter) != len(a) {
			return false
		}
		// Contains agrees with membership through intersect.
		for j := 0; j < m; j++ {
			if inter.Contains(j) != (a.Contains(j) && b.Contains(j)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRingIntervalProperties(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(14)
		k := 1 + rng.Intn(m)
		u := rng.Intn(m)
		s, err := RingInterval(u, k, m)
		if err != nil || len(s) != k {
			return false
		}
		if !s.IsCircularInterval(m) {
			return false
		}
		// Every element of the ring interval is reachable from u in < k steps.
		for _, j := range s {
			d := ((j-u)%m + m) % m
			if d >= k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
