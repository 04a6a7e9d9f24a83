// Package popularity implements the machine popularity model of Section 7.1:
// P(E_j) = 1/(j^s · H_{m,s}), a Zipf distribution over machines controlled
// by the shape parameter s, with the paper's three cases — Uniform (s = 0),
// Worst-case (monotonically decreasing loads) and Shuffled (a uniformly
// random permutation of the Zipf weights). It also provides an O(1) alias
// sampler for drawing task primaries.
package popularity

import (
	"fmt"
	"math"
	"math/rand"

	"flowsched/internal/stats"
)

// Case names the three popularity scenarios of the paper.
type Case int

// The paper's scenarios (Figure 8).
const (
	Uniform  Case = iota // s = 0: every machine equally popular
	Worst                // Zipf weights in decreasing order on M1..Mm
	Shuffled             // Zipf weights randomly permuted
)

func (c Case) String() string {
	switch c {
	case Uniform:
		return "Uniform"
	case Worst:
		return "Worst-case"
	case Shuffled:
		return "Shuffled"
	}
	return fmt.Sprintf("Case(%d)", int(c))
}

// Zipf returns the Zipf weights P(E_j) = 1/(j^s H_{m,s}) for j = 1..m,
// indexed 0..m-1. s = 0 degenerates to the uniform distribution. It panics
// for m < 1 or negative s (the model requires s ≥ 0).
func Zipf(m int, s float64) []float64 {
	if m < 1 {
		panic("popularity: need at least one machine")
	}
	if s < 0 || math.IsNaN(s) {
		panic("popularity: shape parameter must be non-negative")
	}
	h := stats.Harmonic(m, s)
	w := make([]float64, m)
	for j := 1; j <= m; j++ {
		w[j-1] = 1 / (math.Pow(float64(j), s) * h)
	}
	return w
}

// Weights builds the machine popularity vector for one of the paper's
// scenarios. The rng is only used in the Shuffled case to draw the
// permutation; it may be nil otherwise.
func Weights(c Case, m int, s float64, rng *rand.Rand) []float64 {
	switch c {
	case Uniform:
		return Zipf(m, 0)
	case Worst:
		return Zipf(m, s)
	case Shuffled:
		w := Zipf(m, s)
		if rng == nil {
			panic("popularity: Shuffled case needs a random source")
		}
		rng.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
		return w
	}
	panic(fmt.Sprintf("popularity: unknown case %d", int(c)))
}

// Sampler draws machine indices proportionally to a weight vector using
// Walker's alias method: O(m) construction, O(1) per sample.
type Sampler struct {
	prob  []float64
	alias []int
}

// NewSampler builds an alias sampler for the (non-negative, non-zero-sum)
// weight vector.
func NewSampler(weights []float64) *Sampler {
	m := len(weights)
	if m == 0 {
		panic("popularity: empty weight vector")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("popularity: negative or NaN weight")
		}
		total += w
	}
	if total <= 0 {
		panic("popularity: weights sum to zero")
	}
	scaled := make([]float64, m)
	for i, w := range weights {
		scaled[i] = w / total * float64(m)
	}
	s := &Sampler{prob: make([]float64, m), alias: make([]int, m)}
	var small, large []int
	for i, p := range scaled {
		if p < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]
		s.prob[l] = scaled[l]
		s.alias[l] = g
		scaled[g] = scaled[g] + scaled[l] - 1
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	for _, i := range large {
		s.prob[i] = 1
		s.alias[i] = i
	}
	for _, i := range small {
		s.prob[i] = 1
		s.alias[i] = i
	}
	return s
}

// Sample draws one machine index.
func (s *Sampler) Sample(rng *rand.Rand) int {
	i := rng.Intn(len(s.prob))
	if rng.Float64() < s.prob[i] {
		return i
	}
	return s.alias[i]
}
