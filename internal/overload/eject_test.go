package overload

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"flowsched/internal/core"
)

// oracleEjector is the ejector as it was before it kept its EWMAs sorted:
// the same EWMA and ejection rules, with the cluster median re-sorted from
// scratch on every call. It is the reference the in-place median is checked
// against.
type oracleEjector struct {
	cfg        Ejector // thresholds only
	m          int
	ewma       []float64
	samples    []int
	ejected    []bool
	until      []core.Time
	numEjected int
}

func (o *oracleEjector) reset(m int) {
	o.m = m
	o.ewma = make([]float64, m)
	o.samples = make([]int, m)
	o.ejected = make([]bool, m)
	o.until = make([]core.Time, m)
	o.numEjected = 0
}

// sortedMedian is the sort-based median over the servers with samples.
func sortedMedian(ewma []float64, samples []int) float64 {
	var xs []float64
	for j, s := range samples {
		if s > 0 {
			xs = append(xs, ewma[j])
		}
	}
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

func (o *oracleEjector) observe(j int, factor float64, now core.Time) bool {
	if o.samples[j] == 0 {
		o.ewma[j] = factor
	} else {
		a := o.cfg.alpha()
		o.ewma[j] = a*factor + (1-a)*o.ewma[j]
	}
	o.samples[j]++
	if o.ejected[j] || o.samples[j] < o.cfg.minSamples() {
		return false
	}
	med := sortedMedian(o.ewma, o.samples)
	if med <= 0 || o.ewma[j] <= o.cfg.k()*med {
		return false
	}
	if float64(o.numEjected+1) > o.cfg.maxFraction()*float64(o.m) {
		return false
	}
	o.ejected[j] = true
	o.until[j] = now + o.cfg.cooldown()
	o.numEjected++
	return true
}

func (o *oracleEjector) readmit(now core.Time) []int {
	var out []int
	for j := 0; j < o.m; j++ {
		if !o.ejected[j] || now < o.until[j] {
			continue
		}
		o.ejected[j] = false
		o.ewma[j], o.samples[j], o.until[j] = 0, 0, 0
		o.numEjected--
		out = append(out, j)
	}
	return out
}

// TestEjectorMedianMatchesSortOracle drives random Observe/Readmit
// sequences, with resets to other cluster sizes between runs, through the
// ejector and the sort-based oracle. After every step the in-place median
// must equal the oracle's, the sorted slice must hold exactly the sampled
// servers' EWMAs, and every ejection and readmission must match. Factors
// come from a small pool, so ties and equal EWMAs are common, and cluster
// sizes cover both odd and even sample counts; a few are +Inf or NaN, which
// sort.Float64s orders first.
func TestEjectorMedianMatchesSortOracle(t *testing.T) {
	pool := []float64{0.5, 1, 1, 1, 2, 3, 6, 20}
	same := func(a, b float64) bool { return a == b || (a != a && b != b) }
	ejections, readmits := 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := &Ejector{
			K:           1.5 + rng.Float64()*2,
			Alpha:       []float64{0, 0.3, 0.5, 1}[rng.Intn(4)],
			Cooldown:    core.Time(1 + rng.Intn(5)),
			MinSamples:  1 + rng.Intn(4),
			MaxFraction: []float64{0, 0.3, 1}[rng.Intn(3)],
		}
		o := &oracleEjector{cfg: *e}
		for run := 0; run < 3; run++ {
			m := 1 + rng.Intn(12)
			e.reset(m)
			o.reset(m)
			hot := rng.Intn(m)
			now := core.Time(0)
			for step := 0; step < 150; step++ {
				now += core.Time(rng.Intn(3)) * 0.5
				if rng.Intn(8) == 0 {
					var got []int
					e.Readmit(now, func(j int) { got = append(got, j) })
					want := o.readmit(now)
					if len(got) != len(want) {
						t.Fatalf("seed %d step %d: readmitted %v, oracle %v", seed, step, got, want)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("seed %d step %d: readmitted %v, oracle %v", seed, step, got, want)
						}
					}
					readmits += len(got)
				} else {
					j := rng.Intn(m)
					if rng.Intn(3) == 0 {
						j = hot
					}
					f := pool[rng.Intn(len(pool))]
					if j == hot && rng.Intn(2) == 0 {
						f *= 8
					}
					switch rng.Intn(60) {
					case 0, 1, 2, 3, 4, 5:
						f = rng.Float64() * 10
					case 6:
						f = math.Inf(1) // an overflowed end; with Alpha 1 the next EWMA is NaN
					case 7:
						f = math.NaN()
					}
					got, want := e.Observe(j, f, now), o.observe(j, f, now)
					if got != want {
						t.Fatalf("seed %d step %d: Observe(%d, %v) ejected=%v, oracle %v", seed, step, j, f, got, want)
					}
					if got {
						ejections++
					}
				}
				if med, want := e.median(), sortedMedian(e.ewma, e.samples); !same(med, want) {
					t.Fatalf("seed %d step %d: median %v, oracle %v (sorted %v)", seed, step, med, want, e.sorted)
				}
				var xs []float64
				for j := 0; j < m; j++ {
					if e.samples[j] > 0 {
						xs = append(xs, e.ewma[j])
					}
				}
				sort.Float64s(xs)
				if len(xs) != len(e.sorted) {
					t.Fatalf("seed %d step %d: sorted holds %d EWMAs, %d servers have samples", seed, step, len(e.sorted), len(xs))
				}
				for i := range xs {
					if !same(xs[i], e.sorted[i]) {
						t.Fatalf("seed %d step %d: sorted %v, want %v", seed, step, e.sorted, xs)
					}
				}
			}
		}
	}
	if ejections < 100 || readmits < 100 {
		t.Fatalf("the sequences exercised only %d ejections and %d readmissions", ejections, readmits)
	}
}
