package popularity

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestZipfUniformCase(t *testing.T) {
	w := Zipf(6, 0)
	for _, x := range w {
		if math.Abs(x-1.0/6) > 1e-12 {
			t.Fatalf("s=0 should be uniform, got %v", w)
		}
	}
}

func TestZipfSumsToOne(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(40)
		s := rng.Float64() * 5
		w := Zipf(m, s)
		sum := 0.0
		for _, x := range w {
			if x <= 0 {
				return false
			}
			sum += x
		}
		// Weights are non-increasing (monotone worst-case shape).
		for i := 1; i < m; i++ {
			if w[i] > w[i-1]+1e-15 {
				return false
			}
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfKnownValues(t *testing.T) {
	// m=2, s=1: H = 1.5; weights 2/3, 1/3.
	w := Zipf(2, 1)
	if math.Abs(w[0]-2.0/3) > 1e-12 || math.Abs(w[1]-1.0/3) > 1e-12 {
		t.Fatalf("Zipf(2,1) = %v", w)
	}
}

func TestWeightsCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := Weights(Uniform, 5, 3, nil) // s ignored for uniform
	for _, x := range u {
		if math.Abs(x-0.2) > 1e-12 {
			t.Fatalf("Uniform weights = %v", u)
		}
	}
	w := Weights(Worst, 5, 1, nil)
	if !sort.IsSorted(sort.Reverse(sort.Float64Slice(w))) {
		t.Fatalf("Worst-case weights should be decreasing: %v", w)
	}
	sh := Weights(Shuffled, 5, 1, rng)
	// Same multiset as Worst.
	a := append([]float64(nil), w...)
	b := append([]float64(nil), sh...)
	sort.Float64s(a)
	sort.Float64s(b)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("Shuffled weights differ in multiset: %v vs %v", w, sh)
		}
	}
}

func TestWeightsShuffledNeedsRng(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	Weights(Shuffled, 5, 1, nil)
}

func TestCaseString(t *testing.T) {
	if Uniform.String() != "Uniform" || Worst.String() != "Worst-case" || Shuffled.String() != "Shuffled" {
		t.Fatalf("Case names wrong")
	}
	if Case(9).String() != "Case(9)" {
		t.Fatalf("unknown case name")
	}
}

func TestSamplerMatchesWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := Zipf(8, 1.2)
	s := NewSampler(w)
	const n = 200000
	counts := make([]int, len(w))
	for i := 0; i < n; i++ {
		counts[s.Sample(rng)]++
	}
	for j, want := range w {
		got := float64(counts[j]) / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("machine %d: empirical %v vs weight %v", j, got, want)
		}
	}
}

func TestSamplerDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSampler([]float64{0, 1, 0})
	for i := 0; i < 100; i++ {
		if s.Sample(rng) != 1 {
			t.Fatalf("degenerate sampler drew wrong index")
		}
	}
}

func TestSamplerPanics(t *testing.T) {
	for _, w := range [][]float64{{}, {0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %v", w)
				}
			}()
			NewSampler(w)
		}()
	}
}

func TestZipfPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Zipf(0, 1) },
		func() { Zipf(3, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			f()
		}()
	}
}
