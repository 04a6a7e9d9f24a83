package lp

import (
	"math"
	"math/rand"
	"testing"

	"flowsched/internal/loadlp"
	"flowsched/internal/popularity"
	"flowsched/internal/replicate"
)

// solveLP15 solves the paper's LP (15) for a max-load model literally.
// Variables: x_0 = λ and one a_ij per admissible (machine i, primary j)
// pair; constraints (15b)-(15f) as in the paper.
func solveLP15(mo *loadlp.Model) (float64, error) {
	type pair struct{ i, j int }
	var pairs []pair
	index := make(map[pair]int)
	for j := 0; j < mo.M; j++ {
		for _, i := range mo.Sets[j] {
			index[pair{i, j}] = len(pairs) + 1 // +1: variable 0 is λ
			pairs = append(pairs, pair{i, j})
		}
	}
	p := NewProblem(1+len(pairs), true)
	p.SetObjectiveCoef(0, 1) // maximize λ (15a)

	// (15b): Σ_i a_ij - λ P(E_j) = 0 for all j.
	for j := 0; j < mo.M; j++ {
		idx := []int{0}
		val := []float64{-mo.Weights[j]}
		for _, i := range mo.Sets[j] {
			idx = append(idx, index[pair{i, j}])
			val = append(val, 1)
		}
		p.AddConstraintSparse(idx, val, EQ, 0)
	}
	// (15c): Σ_j a_ij ≤ 1 for all i.
	for i := 0; i < mo.M; i++ {
		var idx []int
		var val []float64
		for j := 0; j < mo.M; j++ {
			if mo.Sets[j].Contains(i) {
				idx = append(idx, index[pair{i, j}])
				val = append(val, 1)
			}
		}
		if len(idx) == 0 {
			continue
		}
		p.AddConstraintSparse(idx, val, LE, 1)
	}
	// (15d) is enforced structurally (absent variables); (15e)-(15f) are the
	// solver's non-negativity.
	sol, err := p.Solve()
	if err != nil {
		return 0, err
	}
	return sol.Objective, nil
}

// TestMaxLoadMatchesLP15 checks loadlp.Model.MaxLoad against the simplex on
// LP (15) to relative precision 1e-9: on hand-computed models, then on
// random ones (m ≤ 12, Shuffled Zipf s ∈ [0, 4)) from five replication
// families: overlapping, disjoint, offset-disjoint, random-k and none.
func TestMaxLoadMatchesLP15(t *testing.T) {
	models := []*loadlp.Model{
		loadlp.NewModel(popularity.Zipf(6, 0), replicate.None{}),
		loadlp.NewModel(popularity.Zipf(8, 1.3), replicate.None{}),
		loadlp.NewModel([]float64{0.7, 0.1, 0.1, 0.1}, replicate.Overlapping{K: 2}),
	}
	rng := rand.New(rand.NewSource(1))
	for len(models) < 200 {
		m := 2 + rng.Intn(11)
		k := 1 + rng.Intn(m)
		w := popularity.Weights(popularity.Shuffled, m, rng.Float64()*4, rng)
		strats := []replicate.Strategy{
			replicate.Overlapping{K: k},
			replicate.Disjoint{K: k},
			replicate.OffsetDisjoint{K: k, Offset: rng.Intn(m)},
			replicate.NewRandomK(k, rng),
			replicate.None{},
		}
		models = append(models, loadlp.NewModel(w, strats[rng.Intn(len(strats))]))
	}
	for x, mo := range models {
		want, err := solveLP15(mo)
		if err != nil {
			t.Fatalf("model %d: %v", x, err)
		}
		if got := mo.MaxLoad(); math.Abs(got-want) > 1e-9*want {
			t.Errorf("model %d (m=%d, sets %v): MaxLoad %v, simplex %v", x, mo.M, mo.Sets, got, want)
		}
	}
}

func BenchmarkAblationMaxLoadSimplex(b *testing.B) {
	mo := loadlp.NewModel(popularity.Zipf(15, 1.25), replicate.Overlapping{K: 3})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solveLP15(mo); err != nil {
			b.Fatal(err)
		}
	}
}
