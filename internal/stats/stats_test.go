package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMean(t *testing.T) {
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Errorf("Mean = %v", Mean([]float64{1, 2, 3, 4}))
	}
	if Mean(nil) != 0 {
		t.Errorf("Mean(nil) should be 0")
	}
}

func TestMedian(t *testing.T) {
	if !almost(Median([]float64{3, 1, 2}), 2) {
		t.Errorf("odd median")
	}
	if !almost(Median([]float64{4, 1, 3, 2}), 2.5) {
		t.Errorf("even median")
	}
	if Median(nil) != 0 {
		t.Errorf("Median(nil) should be 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	if !almost(Quantile(xs, 0), 10) || !almost(Quantile(xs, 1), 50) {
		t.Errorf("extremes wrong")
	}
	if !almost(Quantile(xs, 0.25), 20) {
		t.Errorf("q25 = %v", Quantile(xs, 0.25))
	}
	if !almost(Quantile(xs, 0.1), 14) { // interpolation between 10 and 20
		t.Errorf("q10 = %v", Quantile(xs, 0.1))
	}
	if !almost(Quantile([]float64{7}, 0.3), 7) {
		t.Errorf("singleton quantile")
	}
	// Clamping: below 0 and NaN read the minimum, above 1 the maximum.
	for _, c := range []struct{ q, want float64 }{
		{-1, 10}, {2, 50}, {math.NaN(), 10}, {math.Inf(-1), 10}, {math.Inf(1), 50},
	} {
		if got := Quantile(xs, c.q); !almost(got, c.want) {
			t.Errorf("Quantile(xs, %v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileDoesNotModifyInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input modified: %v", xs)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 2}
	if Min(xs) != -1 || Max(xs) != 3 {
		t.Errorf("Min/Max wrong")
	}
	// Regression: empty samples used to report ±Inf, which poisoned the
	// sim metrics of empty runs and made json.Marshal reject them.
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Errorf("empty Min/Max should be 0, got %v/%v", Min(nil), Max(nil))
	}
	if _, err := json.Marshal([]float64{Min(nil), Max(nil)}); err != nil {
		t.Errorf("empty Min/Max not JSON-marshalable: %v", err)
	}
}

// TestSummarizeMatchesQuantile pins the single-sort Summarize against the
// direct per-statistic computations it replaced.
func TestSummarizeMatchesQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 17, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		s := Summarize(xs)
		want := Summary{
			N:      n,
			Mean:   Mean(xs),
			Median: Quantile(xs, 0.5),
			Min:    Min(xs),
			Max:    Max(xs),
			StdDev: StdDev(xs),
			P90:    Quantile(xs, 0.90),
			P99:    Quantile(xs, 0.99),
		}
		if s != want {
			t.Errorf("n=%d: Summarize %+v != direct %+v", n, s, want)
		}
	}
	if (Summarize(nil) != Summary{}) {
		t.Errorf("empty Summarize should be the zero Summary, got %+v", Summarize(nil))
	}
}

func TestStdDev(t *testing.T) {
	if StdDev([]float64{5}) != 0 {
		t.Errorf("single sample sd should be 0")
	}
	if !almost(StdDev([]float64{2, 4}), 1) {
		t.Errorf("sd of {2,4} = %v", StdDev([]float64{2, 4}))
	}
}

func TestHarmonic(t *testing.T) {
	// H_{m,0} = m.
	if !almost(Harmonic(7, 0), 7) {
		t.Errorf("H_{7,0} = %v", Harmonic(7, 0))
	}
	// H_{3,1} = 1 + 1/2 + 1/3.
	if !almost(Harmonic(3, 1), 11.0/6) {
		t.Errorf("H_{3,1} = %v", Harmonic(3, 1))
	}
	// H_{2,2} = 1 + 1/4.
	if !almost(Harmonic(2, 2), 1.25) {
		t.Errorf("H_{2,2} = %v", Harmonic(2, 2))
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || !almost(s.Mean, 3) || !almost(s.Median, 3) || s.Min != 1 || s.Max != 5 {
		t.Errorf("Summary = %+v", s)
	}
	if s.String() == "" {
		t.Errorf("empty String")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		// Quantile is monotone in q and bounded by min/max.
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0001; q += 0.05 {
			v := Quantile(xs, q)
			if v < prev-1e-9 {
				return false
			}
			if v < Min(xs)-1e-9 || v > Max(xs)+1e-9 {
				return false
			}
			prev = v
		}
		// Median matches the classic definition.
		sorted := make([]float64, n)
		copy(sorted, xs)
		sort.Float64s(sorted)
		var med float64
		if n%2 == 1 {
			med = sorted[n/2]
		} else {
			med = (sorted[n/2-1] + sorted[n/2]) / 2
		}
		return math.Abs(Median(xs)-med) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
