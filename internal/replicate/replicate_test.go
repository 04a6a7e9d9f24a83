package replicate

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flowsched/internal/core"
	"flowsched/internal/psets"
)

func TestFigure9Example(t *testing.T) {
	// Paper Figure 9: m=6, k=3, primary M3 (0-based 2).
	// Overlapping: {M3,M4,M5}; Disjoint: {M1,M2,M3}.
	ov := Overlapping{K: 3}.Set(2, 6)
	if !ov.Equal(core.NewProcSet(2, 3, 4)) {
		t.Fatalf("overlapping = %v, want {M3,M4,M5}", ov)
	}
	dj := Disjoint{K: 3}.Set(2, 6)
	if !dj.Equal(core.NewProcSet(0, 1, 2)) {
		t.Fatalf("disjoint = %v, want {M1,M2,M3}", dj)
	}
}

func TestOverlappingWraps(t *testing.T) {
	s := Overlapping{K: 3}.Set(5, 6)
	if !s.Equal(core.NewProcSet(0, 1, 5)) {
		t.Fatalf("overlapping wrap = %v, want {M6,M1,M2}", s)
	}
}

func TestDisjointLastBlockShort(t *testing.T) {
	// m=7, k=3: blocks {0,1,2},{3,4,5},{6}.
	d := Disjoint{K: 3}
	if !d.Set(6, 7).Equal(core.NewProcSet(6)) {
		t.Fatalf("last block = %v", d.Set(6, 7))
	}
	if !d.Set(4, 7).Equal(core.NewProcSet(3, 4, 5)) {
		t.Fatalf("middle block = %v", d.Set(4, 7))
	}
}

func TestNone(t *testing.T) {
	if !(None{}).Set(3, 6).Equal(core.NewProcSet(3)) {
		t.Fatalf("None should return the primary only")
	}
}

func TestStrategyProperties(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(14)
		k := 1 + rng.Intn(m)
		strategies := []Strategy{
			None{},
			Overlapping{K: k},
			Disjoint{K: k},
			OffsetDisjoint{K: k, Offset: rng.Intn(m)},
			NewRandomK(k, rng),
		}
		for _, s := range strategies {
			for u := 0; u < m; u++ {
				set := s.Set(u, m)
				// Primary always in the set.
				if !set.Contains(u) {
					return false
				}
				// Size: exactly k for overlapping/random, ≤ k otherwise
				// (disjoint last block may be short; None is 1).
				switch s.(type) {
				case Overlapping, *RandomK:
					if set.Len() != k {
						return false
					}
				case None:
					if set.Len() != 1 {
						return false
					}
				default:
					if set.Len() < 1 || set.Len() > k {
						return false
					}
				}
				// Determinism: same primary, same set.
				if !s.Set(u, m).Equal(set) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestDisjointFamilyStructure verifies the structural claims of the paper:
// the disjoint strategy yields a disjoint family (Theorem 6 applies), the
// overlapping strategy yields circular intervals that overlap for k > 1.
func TestDisjointFamilyStructure(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(14)
		k := 1 + rng.Intn(m)

		var dsets, osets []core.ProcSet
		for u := 0; u < m; u++ {
			dsets = append(dsets, Disjoint{K: k}.Set(u, m))
			osets = append(osets, Overlapping{K: k}.Set(u, m))
		}
		df := psets.NewFamily(m, dsets...)
		if !df.IsDisjoint() || !df.IsInterval() {
			return false
		}
		of := psets.NewFamily(m, osets...)
		if !of.IsInterval() {
			return false
		}
		if k > 1 && k < m && of.IsDisjoint() {
			return false // overlapping sets must actually overlap
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestOffsetDisjointIsPartition(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(14)
		k := 1 + rng.Intn(m)
		off := rng.Intn(2 * m)
		s := OffsetDisjoint{K: k, Offset: off}
		var sets []core.ProcSet
		for u := 0; u < m; u++ {
			sets = append(sets, s.Set(u, m))
		}
		f := psets.NewFamily(m, sets...)
		if !f.IsDisjoint() {
			return false
		}
		// Every machine covered exactly once across distinct sets.
		covered := make([]int, m)
		for _, set := range f.Sets {
			for _, j := range set {
				covered[j]++
			}
		}
		for _, c := range covered {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestOffsetDisjointZeroOffsetMatchesDisjoint(t *testing.T) {
	for m := 2; m <= 12; m++ {
		for k := 1; k <= m; k++ {
			for u := 0; u < m; u++ {
				a := Disjoint{K: k}.Set(u, m)
				b := OffsetDisjoint{K: k}.Set(u, m)
				if !a.Equal(b) {
					t.Fatalf("m=%d k=%d u=%d: %v vs %v", m, k, u, a, b)
				}
			}
		}
	}
}

func TestRandomKMemoizes(t *testing.T) {
	r := NewRandomK(3, rand.New(rand.NewSource(7)))
	a := r.Set(2, 10)
	b := r.Set(2, 10)
	if !a.Equal(b) {
		t.Fatalf("RandomK should memoize per primary: %v vs %v", a, b)
	}
}

func TestCheckKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for k > m")
		}
	}()
	Overlapping{K: 7}.Set(0, 3)
}

func TestNames(t *testing.T) {
	if (None{}).Name() != "none" ||
		(Overlapping{K: 3}).Name() != "overlapping(k=3)" ||
		(Disjoint{K: 3}).Name() != "disjoint(k=3)" {
		t.Fatalf("names wrong")
	}
}
