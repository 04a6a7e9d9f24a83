// Package stats provides the small statistical toolbox used by the
// experiments: means, medians, quantiles, generalized harmonic numbers and
// run summaries.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of xs using the midpoint convention for even
// lengths (0 for an empty slice). The input is not modified.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics (type-7, the R default). The input
// is not modified. It returns 0 for an empty slice and clamps q to [0,1].
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted is Quantile on an already-sorted non-empty sample; callers
// needing several quantiles sort once and share the copy. A NaN q clamps
// to 0, as a negative one does.
func quantileSorted(sorted []float64, q float64) float64 {
	if !(q >= 0) {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Min returns the minimum of xs. An empty sample has no minimum; it is
// reported as 0, never ±Inf, so downstream aggregates (and json.Marshal,
// which rejects infinities) stay well-defined on empty or fully-skipped
// runs.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs (0 for an empty slice, for the same reason
// as Min).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// StdDev returns the population standard deviation of xs (0 for fewer than
// two samples).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mu := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - mu
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Harmonic returns the m-th generalized harmonic number of order s,
// H_{m,s} = Σ_{j=1..m} 1/j^s, used by the Zipf popularity model.
func Harmonic(m int, s float64) float64 {
	var h float64
	for j := 1; j <= m; j++ {
		h += 1 / math.Pow(float64(j), s)
	}
	return h
}

// Summary aggregates a sample for experiment reporting.
type Summary struct {
	N            int
	Mean, Median float64
	Min, Max     float64
	StdDev       float64
	P90, P99     float64
}

// Summarize computes a Summary of xs. The sample is copied and sorted once;
// every order statistic (median, min, max, p90, p99) reads the shared sorted
// copy instead of re-sorting per quantile.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	return Summary{
		N:      n,
		Mean:   Mean(xs),
		Median: quantileSorted(sorted, 0.5),
		Min:    sorted[0],
		Max:    sorted[n-1],
		StdDev: StdDev(xs),
		P90:    quantileSorted(sorted, 0.90),
		P99:    quantileSorted(sorted, 0.99),
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g median=%.4g min=%.4g max=%.4g sd=%.4g p90=%.4g p99=%.4g",
		s.N, s.Mean, s.Median, s.Min, s.Max, s.StdDev, s.P90, s.P99)
}
