package obs

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Min() != 0 || h.Quantile(0.5) != 0 {
		t.Errorf("empty histogram aggregates nonzero: count=%d mean=%v q50=%v", h.Count(), h.Mean(), h.Quantile(0.5))
	}
}

// TestHistogramQuantileBound: the quantile of a random sample is within the
// documented relative error of the anchoring order statistic, across value
// scales spanning many decades.
func TestHistogramQuantileBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		h := NewHistogram()
		n := 1 + rng.Intn(3000)
		scale := math.Pow(10, float64(rng.Intn(9)-4)) // 1e-4 .. 1e4
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = scale * (0.01 + rng.ExpFloat64()*3)
			h.Observe(xs[i])
		}
		sort.Float64s(xs)
		g := h.Growth()
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
			anchor := xs[int(math.Floor(q*float64(n-1)))]
			hq := h.Quantile(q)
			if hq < anchor/g*(1-1e-12) || hq > anchor*g*(1+1e-12) {
				t.Fatalf("trial %d: q=%v quantile %v outside [%v, %v] (anchor %v)",
					trial, q, hq, anchor/g, anchor*g, anchor)
			}
		}
		if got := h.Mean(); math.Abs(got-mean(xs)) > 1e-9*math.Abs(mean(xs)) {
			t.Fatalf("mean %v != %v", got, mean(xs))
		}
		if h.Max() != xs[n-1] || h.Min() != xs[0] {
			t.Fatalf("extremes %v/%v != %v/%v", h.Min(), h.Max(), xs[0], xs[n-1])
		}
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TestHistogramBoundedMemory: bucket count grows with the value range, not
// the observation count.
func TestHistogramBoundedMemory(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200000; i++ {
		h.Observe(0.1 + rng.Float64()*99.9) // three decades
	}
	// log_g(1000) buckets suffice for [0.1, 100]; allow slack for edges.
	limit := int(math.Log(1e4)/math.Log(h.Growth())) + 8
	if h.Buckets() > limit {
		t.Errorf("%d buckets for a 3-decade sample, want ≤ %d", h.Buckets(), limit)
	}
	if h.Count() != 200000 {
		t.Errorf("count %d", h.Count())
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(-3)
	h.Observe(5)
	if h.Count() != 3 {
		t.Fatalf("count %d", h.Count())
	}
	if q := h.Quantile(0); q != 0 { // zero-bucket representative
		t.Errorf("q0 = %v, want 0", q)
	}
	if h.Min() != -3 { // the exact extreme is still tracked
		t.Errorf("min = %v, want -3", h.Min())
	}
	if q := h.Quantile(1); q != 5 {
		t.Errorf("q1 = %v, want 5", q)
	}
}

// TestHistogramQuantileClamps: Quantile and QuantileExemplar clamp q to
// [0, 1], a NaN q to 0, so every row reads the p0 or p100 value and task.
func TestHistogramQuantileClamps(t *testing.T) {
	h := NewHistogram()
	for i, v := range []float64{1, 10, 100, 1000} {
		h.ObserveExemplar(v, i+1)
	}
	for _, c := range []struct{ q, as float64 }{
		{-1, 0}, {2, 1}, {math.NaN(), 0}, {math.Inf(-1), 0}, {math.Inf(1), 1},
	} {
		wantV, wantTask := h.QuantileExemplar(c.as)
		if v := h.Quantile(c.q); v != wantV {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, v, wantV)
		}
		if v, task := h.QuantileExemplar(c.q); v != wantV || task != wantTask {
			t.Errorf("QuantileExemplar(%v) = (%v, T%d), want (%v, T%d)", c.q, v, task, wantV, wantTask)
		}
	}
}

func TestHistogramWriteProm(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	var b strings.Builder
	if err := h.WriteProm(&b, "flowsched_flow_time"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE flowsched_flow_time summary",
		`flowsched_flow_time{quantile="0.5"}`,
		"flowsched_flow_time_count 100",
		"flowsched_flow_time_sum 5050",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramProbeStretch(t *testing.T) {
	p := NewHistogramProbe()
	h := hooks(p)
	h.OnComplete(0, 0, 1, 2, 5) // flow 4, stretch 2
	h.OnComplete(1, 1, 0, 0, 3) // zero-proc: flow 3, stretch 0
	if p.Flow.Count() != 2 || p.Stretch.Count() != 2 {
		t.Fatalf("counts %d/%d", p.Flow.Count(), p.Stretch.Count())
	}
	if p.Flow.Max() != 4 || p.Stretch.Max() != 2 || p.Stretch.Min() != 0 {
		t.Errorf("flow max %v stretch max %v min %v", p.Flow.Max(), p.Stretch.Max(), p.Stretch.Min())
	}
}

// fullWalkQuantile is Quantile as a walk from the lowest bucket on every
// query, with the exemplar bucket QuantileExemplar reads: the reference
// the resumable cursor must match bit for bit. The top ranks, as many as
// there are +Inf observations, read +Inf and the +Inf bucket's exemplar.
func fullWalkQuantile(h *Histogram, q float64) (float64, int) {
	if h.count == 0 {
		return 0, -1
	}
	q = math.Max(0, math.Min(1, q))
	rank := uint64(math.Floor(q * float64(h.count-1)))
	e := h.exZero
	v := h.clamp(0)
	if rank >= h.count-h.infs {
		e, v = h.exInf, math.Inf(1)
	} else if rank >= h.zeros {
		cum := h.zeros
		for i, c := range h.counts {
			if cum += c; cum > rank {
				v = h.clamp(math.Exp(logBase + (float64(h.lo+i)+0.5)*logGrowth))
				e = exemplar{}
				if j := h.lo + i - h.exLo; h.ex != nil && j >= 0 && j < len(h.ex) {
					e = h.ex[j]
				}
				break
			}
		}
	}
	if h.exN == 0 || !e.ok {
		return v, -1
	}
	return v, e.task
}

// TestHistogramQuantileCursor checks Quantile and QuantileExemplar after
// every observation against fullWalkQuantile. The streams mix values ≤ 0
// and NaN (the zero bucket), values below every bucket so far (counts grow
// downward and the cursor's bucket shifts in the slice), and plain and
// exemplar observations; the queries change q between calls, leave [0, 1],
// and repeat with no observation in between.
func TestHistogramQuantileCursor(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := NewHistogram()
		floor := 1.0
		for i := 0; i < 3000; i++ {
			var v float64
			switch r := rng.Intn(20); {
			case r == 0:
				v = -rng.Float64()
			case r == 1:
				v = 0
			case r == 2:
				v = math.NaN()
			case r == 3: // below every bucket so far
				floor /= 1 + 3*rng.Float64()
				v = floor
			default:
				v = math.Exp(rng.NormFloat64() * 2)
			}
			if rng.Intn(3) == 0 {
				h.ObserveExemplar(v, i)
			} else {
				h.Observe(v)
			}
			q := rng.Float64()
			for k := rng.Intn(4); k >= 0; k-- {
				switch rng.Intn(6) {
				case 0:
					q = -0.5 + 2*rng.Float64() // often outside [0, 1]
				case 1:
					q = rng.Float64()
				} // otherwise the same q again
				want, wantTask := fullWalkQuantile(h, q)
				got := h.Quantile(q)
				if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("seed %d obs %d: Quantile(%v) = %v, full walk %v", seed, i, q, got, want)
				}
				if gotV, gotTask := h.QuantileExemplar(q); gotTask != wantTask || math.Float64bits(gotV) != math.Float64bits(got) {
					t.Fatalf("seed %d obs %d: QuantileExemplar(%v) = %v, task %d; want %v, task %d",
						seed, i, q, gotV, gotTask, want, wantTask)
				}
			}
		}
	}
}

// TestHistogramInfinity: a flow that overflowed to +Inf is counted in the
// +Inf bucket, above the log buckets, whether it comes after the finite
// values, before them or alone. The log buckets and their exemplars are
// those of the finite values alone, so Buckets stays bounded; a rank among
// the +Inf observations reads +Inf with the first +Inf task as exemplar,
// and every other rank reads its finite order statistic within the
// documented error.
func TestHistogramInfinity(t *testing.T) {
	inf := math.Inf(1)
	type rank struct {
		q, x float64 // x: the order statistic of rank ⌊q·(Count−1)⌋
		task int
	}
	for _, c := range []struct {
		name string
		vals []float64
		want []rank
	}{
		{"finite then +Inf", []float64{0.5, 1, 2, 4, inf, inf},
			[]rank{{0, 0.5, 0}, {0.5, 2, 2}, {1, inf, 4}}},
		{"+Inf then finite", []float64{inf, inf, 0.5, 1, 2, 4},
			[]rank{{0, 0.5, 2}, {0.5, 2, 4}, {1, inf, 0}}},
		{"+Inf only", []float64{inf, inf},
			[]rank{{0, inf, 0}, {0.5, inf, 0}, {1, inf, 0}}},
	} {
		h, finite := NewHistogram(), NewHistogram()
		for i, v := range c.vals {
			h.ObserveExemplar(v, i)
			if !math.IsInf(v, 1) {
				finite.ObserveExemplar(v, i)
			}
		}
		if h.Buckets() != finite.Buckets() || h.lo != finite.lo || !reflect.DeepEqual(h.counts, finite.counts) ||
			!reflect.DeepEqual(h.ex, finite.ex) {
			t.Errorf("%s: log buckets %v from %d (%d), want the finite values' %v from %d (%d)",
				c.name, h.counts, h.lo, h.Buckets(), finite.counts, finite.lo, finite.Buckets())
		}
		if h.Count() != len(c.vals) || h.Max() != inf {
			t.Errorf("%s: count %d, max %v", c.name, h.Count(), h.Max())
		}
		for _, w := range c.want {
			wantV, wantTask := fullWalkQuantile(h, w.q)
			v, task := h.QuantileExemplar(w.q)
			if q := h.Quantile(w.q); math.Float64bits(q) != math.Float64bits(v) || math.Float64bits(v) != math.Float64bits(wantV) || task != wantTask {
				t.Errorf("%s: Quantile(%v) = %v, QuantileExemplar = %v, task %d; full walk %v, task %d",
					c.name, w.q, q, v, task, wantV, wantTask)
			}
			if ok := v == w.x || !math.IsInf(w.x, 1) && math.Abs(v-w.x) <= w.x*h.RelativeError(); !ok || task != w.task {
				t.Errorf("%s: q=%v reads %v, task %d; want %v, task %d", c.name, w.q, v, task, w.x, w.task)
			}
		}
	}
}
