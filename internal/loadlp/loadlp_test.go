package loadlp

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"flowsched/internal/core"
	"flowsched/internal/popularity"
	"flowsched/internal/replicate"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// agree reports agreement to relative precision 1e-9.
func agree(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }

func TestNoReplicationUniform(t *testing.T) {
	// Uniform weights, no replication: λ* = m.
	m := 6
	mo := NewModel(popularity.Zipf(m, 0), replicate.None{})
	if got := mo.MaxLoad(); !almost(got, 6, 1e-9) {
		t.Fatalf("MaxLoad = %v, want 6", got)
	}
	if got := hallOracle(mo); !almost(got, 6, 1e-9) {
		t.Fatalf("Hall = %v", got)
	}
	dj, err := disjointOracle(mo)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(dj, 6, 1e-9) {
		t.Fatalf("Disjoint closed form = %v", dj)
	}
}

func TestNoReplicationZipf(t *testing.T) {
	// No replication: λ* = 1/max_j P(E_j) (Section 7.2).
	m := 8
	w := popularity.Zipf(m, 1.3)
	mo := NewModel(w, replicate.None{})
	want := noReplicationOracle(w)
	if got := mo.MaxLoad(); !almost(got, want, 1e-9) {
		t.Fatalf("MaxLoad = %v, want %v", got, want)
	}
	if got := hallOracle(mo); !almost(got, want, 1e-9) {
		t.Fatalf("Hall = %v, want %v", got, want)
	}
}

func TestMaxLoadNoReplication(t *testing.T) {
	// Uniform on m machines: max weight 1/m, so λ ≤ m.
	if got := noReplicationOracle(popularity.Zipf(6, 0)); math.Abs(got-6) > 1e-9 {
		t.Fatalf("uniform max load = %v, want 6", got)
	}
	// m=2, s=1: max weight 2/3 → λ = 1.5.
	if got := noReplicationOracle(popularity.Zipf(2, 1)); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("max load = %v, want 1.5", got)
	}
	if !math.IsInf(noReplicationOracle([]float64{0, 0}), 1) {
		t.Fatalf("zero weights should give infinite load")
	}
}

func TestFullReplicationIgnoresBias(t *testing.T) {
	// k = m: any bias is irrelevant, λ* = m (paper: "popularity bias has
	// obviously no effect when data are fully replicated").
	m := 6
	for _, s := range []float64{0, 1, 3} {
		w := popularity.Zipf(m, s)
		for _, strat := range []replicate.Strategy{
			replicate.Overlapping{K: m}, replicate.Disjoint{K: m},
		} {
			mo := NewModel(w, strat)
			if got := mo.MaxLoad(); !almost(got, float64(m), 1e-9) {
				t.Fatalf("s=%v %s: λ* = %v, want %v", s, strat.Name(), got, m)
			}
		}
	}
}

func TestNoBiasNoStrategyDifference(t *testing.T) {
	// s = 0: both strategies tolerate full load for every k (paper:
	// "replication strategies exhibit no difference ... when no bias").
	m := 6
	w := popularity.Zipf(m, 0)
	for k := 1; k <= m; k++ {
		ov := NewModel(w, replicate.Overlapping{K: k}).MaxLoad()
		dj := NewModel(w, replicate.Disjoint{K: k}).MaxLoad()
		if !almost(ov, float64(m), 1e-9) || !almost(dj, float64(m), 1e-9) {
			t.Fatalf("k=%d: overlapping %v disjoint %v, want %v", k, ov, dj, m)
		}
	}
}

func TestHandComputedDisjoint(t *testing.T) {
	// m=4, k=2, weights (0.4, 0.3, 0.2, 0.1): blocks {0,1} P=0.7 and {2,3}
	// P=0.3 → λ* = min(2/0.7, 2/0.3) = 2/0.7.
	w := []float64{0.4, 0.3, 0.2, 0.1}
	mo := NewModel(w, replicate.Disjoint{K: 2})
	want := 2 / 0.7
	if got := mo.MaxLoad(); !almost(got, want, 1e-9) {
		t.Fatalf("MaxLoad = %v, want %v", got, want)
	}
	got, err := disjointOracle(mo)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, want, 1e-9) {
		t.Fatalf("closed form = %v, want %v", got, want)
	}
	if hall := hallOracle(mo); !almost(hall, want, 1e-9) {
		t.Fatalf("Hall = %v, want %v", hall, want)
	}
}

func TestHandComputedOverlapping(t *testing.T) {
	// m=4, k=2, weights (0.7, 0.1, 0.1, 0.1): overlapping ring intervals
	// I(0)={0,1}, I(1)={1,2}, I(2)={2,3}, I(3)={3,0}.
	// Binding subset is A={0}: N={0,1} → λ ≤ 2/0.7. Check a few others:
	// A={0,1}: N={0,1,2} → 3/0.8 > 2/0.7? 2/0.7=2.857, 3/0.8=3.75 ✓.
	// Full set: 4/1 = 4. So λ* = 2/0.7.
	w := []float64{0.7, 0.1, 0.1, 0.1}
	mo := NewModel(w, replicate.Overlapping{K: 2})
	want := 2 / 0.7
	if got := mo.MaxLoad(); !almost(got, want, 1e-9) {
		t.Fatalf("MaxLoad = %v, want %v", got, want)
	}
	if got := hallOracle(mo); !almost(got, want, 1e-9) {
		t.Fatalf("Hall = %v, want %v", got, want)
	}
}

func TestMaxLoadDisjointRejectsOverlapping(t *testing.T) {
	mo := NewModel(popularity.Zipf(4, 1), replicate.Overlapping{K: 2})
	if _, err := disjointOracle(mo); err == nil {
		t.Fatalf("overlapping sets should be rejected by the closed form")
	}
}

// randomModel draws a model on 2..maxM machines with Shuffled Zipf weights
// (s ∈ [0, 4)) and one of five replication families: overlapping,
// disjoint, offset-disjoint, random-k or none.
func randomModel(rng *rand.Rand, maxM int) *Model {
	m := 2 + rng.Intn(maxM-1)
	k := 1 + rng.Intn(m)
	w := popularity.Weights(popularity.Shuffled, m, rng.Float64()*4, rng)
	strats := []replicate.Strategy{
		replicate.Overlapping{K: k},
		replicate.Disjoint{K: k},
		replicate.OffsetDisjoint{K: k, Offset: rng.Intn(m)},
		replicate.NewRandomK(k, rng),
		replicate.None{},
	}
	return NewModel(w, strats[rng.Intn(len(strats))])
}

// TestSolversAgree cross-checks MaxLoad against the Hall enumeration on
// every family and against the disjoint closed form where it applies
// (disjoint, offset-disjoint and none), to relative precision 1e-9. The
// simplex leg is TestMaxLoadMatchesLP15 in internal/lp.
func TestSolversAgree(t *testing.T) {
	prop := func(seed int64) bool {
		mo := randomModel(rand.New(rand.NewSource(seed)), 16)
		got := mo.MaxLoad()
		if hall := hallOracle(mo); !agree(got, hall) {
			t.Logf("seed %d: MaxLoad %v, Hall %v", seed, got, hall)
			return false
		}
		if cf, err := disjointOracle(mo); err == nil && !agree(got, cf) {
			t.Logf("seed %d: MaxLoad %v, disjoint closed form %v", seed, got, cf)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxLoadLargeM checks MaxLoad far beyond the Hall enumeration's reach
// (m = 10³) against the closed forms, in every popularity case.
func TestMaxLoadLargeM(t *testing.T) {
	const m = 1000
	rng := rand.New(rand.NewSource(3))
	for _, c := range []popularity.Case{popularity.Uniform, popularity.Worst, popularity.Shuffled} {
		w := popularity.Weights(c, m, 1, rng)
		if got, want := NewModel(w, replicate.None{}).MaxLoad(), noReplicationOracle(w); !agree(got, want) {
			t.Errorf("%v none: MaxLoad %v, closed form %v", c, got, want)
		}
		dj := NewModel(w, replicate.Disjoint{K: 3})
		want, err := disjointOracle(dj)
		if err != nil {
			t.Fatal(err)
		}
		if got := dj.MaxLoad(); !agree(got, want) {
			t.Errorf("%v disjoint: MaxLoad %v, closed form %v", c, got, want)
		}
	}
	if got := NewModel(popularity.Zipf(m, 0), replicate.Overlapping{K: 3}).MaxLoad(); !agree(got, m) {
		t.Errorf("uniform overlapping: MaxLoad %v, want %d", got, m)
	}
}

// TestMaxLoadAllocs pins MaxLoad's allocations at m = 1000, where it takes
// five Dinkelbach steps: one network build (20 allocations) and, per step,
// a Run, its minimum cut and a ratio (about 12), 83 in all. Rebuilding the
// network at every step made 158. The collection before measuring starts
// the runtime's mark workers, whose allocations would otherwise count once.
func TestMaxLoadAllocs(t *testing.T) {
	mo := NewModel(popularity.Zipf(1000, 1.25), replicate.Overlapping{K: 3})
	runtime.GC()
	if a := testing.AllocsPerRun(3, func() { mo.MaxLoad() }); a > 90 {
		t.Fatalf("MaxLoad allocates %v times at m = 1000, want at most 90", a)
	}
}

// TestOverlappingDominatesDisjoint verifies the headline of Figure 10: with
// the same weights and k, the overlapping strategy's max load is at least
// the disjoint strategy's (its sets are supersets of what a disjoint block
// offers... precisely, the paper observes this empirically; here it must
// hold on every drawn configuration).
func TestOverlappingDominatesDisjoint(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(9)
		k := 1 + rng.Intn(m)
		w := popularity.Weights(popularity.Shuffled, m, rng.Float64()*4, rng)
		ov := NewModel(w, replicate.Overlapping{K: k}).MaxLoad()
		dj := NewModel(w, replicate.Disjoint{K: k}).MaxLoad()
		return ov >= dj-1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxLoadMonotoneInK(t *testing.T) {
	// More replication never hurts: λ*(k) is non-decreasing in k for the
	// overlapping strategy (sets grow with k).
	rng := rand.New(rand.NewSource(11))
	m := 8
	w := popularity.Weights(popularity.Shuffled, m, 1.5, rng)
	prev := 0.0
	for k := 1; k <= m; k++ {
		cur := NewModel(w, replicate.Overlapping{K: k}).MaxLoad()
		if cur < prev-1e-9 {
			t.Fatalf("λ*(k=%d) = %v < λ*(k=%d) = %v", k, cur, k-1, prev)
		}
		prev = cur
	}
}

func TestMaxLoadPercent(t *testing.T) {
	mo := NewModel(popularity.Zipf(10, 0), replicate.None{})
	if got := mo.MaxLoadPercent(5); !almost(got, 50, 1e-12) {
		t.Fatalf("percent = %v", got)
	}
}

func TestHallPanicsOnHugeM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	mo := &Model{M: 26, Weights: make([]float64, 26)}
	hallOracle(mo)
}

func TestNewModelPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	NewModel(nil, replicate.None{})
}

func TestNewModelPanicsOnInvalidWeights(t *testing.T) {
	for _, w := range [][]float64{
		{0.5, -0.1, 0.6},
		{0.5, math.NaN(), 0.5},
		{0.5, math.Inf(1), 0.5},
		{0, 0, 0},
		{math.MaxFloat64, math.MaxFloat64},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "loadlp: ") {
					t.Errorf("weights %v: panic %q, want a loadlp message", w, msg)
				}
			}()
			NewModel(w, replicate.Overlapping{K: 2})
		}()
	}
}

// allMachines is a strategy without processing sets: a nil core.ProcSet
// means every machine.
type allMachines struct{}

func (allMachines) Name() string              { return "all" }
func (allMachines) Set(u, m int) core.ProcSet { return nil }

func TestNilSetMeansAllMachines(t *testing.T) {
	mo := NewModel(popularity.Zipf(4, 1), allMachines{})
	for j, s := range mo.Sets {
		if s.Len() != 4 {
			t.Fatalf("Sets[%d] = %v, want all 4 machines", j, s)
		}
	}
	if got := mo.MaxLoad(); !almost(got, 4, 1e-9) {
		t.Fatalf("MaxLoad = %v, want m/ΣP = 4", got)
	}
}
