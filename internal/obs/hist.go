package obs

import (
	"fmt"
	"io"
	"math"
)

// Histogram is a streaming log-bucketed (HDR-style) histogram: bucket i
// counts observations in [base·g^i, base·g^(i+1)), so memory is
// O(log_g(max/min)) regardless of how many values are observed — huge runs
// no longer need the full Metrics.Flows slice retained to answer quantile
// queries. Observations ≤ 0 land in a dedicated zero bucket.
//
// Quantile resumes its bucket walk from where the previous query stopped
// (a cursor that Observe keeps current), so a query moves the cursor: a
// histogram, unlike a frozen snapshot, is not safe for concurrent queries.
//
// Every histogram grows its buckets by the same factor (growth). The zero
// value is an empty histogram, as NewHistogram returns.
type Histogram struct {
	counts []uint64 // counts[i] is bucket lo+i
	lo     int      // bucket index of counts[0]
	zeros  uint64   // observations ≤ 0

	// ex mirrors counts bucket-for-bucket (ex[i] is bucket exLo+i) and holds
	// each bucket's exemplar: the task behind the largest value observed in
	// it. Lazily allocated by the first ObserveExemplar and re-aligned to
	// counts on demand, nil on the plain Observe path; memory is bounded by
	// the bucket count. The zero bucket's exemplar lives in exZero.
	ex     []exemplar
	exLo   int
	exZero exemplar
	exN    int // buckets carrying an exemplar, zero bucket included

	count    uint64
	sum      float64
	minSeen  float64
	maxSeen  float64
	observed bool

	cur quantileCursor // valid once counts is allocated
}

// quantileCursor is where the last Quantile query stopped: bucket b, the
// number of positive observations in buckets below it, and the bucket's
// representative (rep, for bucket repB). Observe counts a value below b
// into below, so a query steps from b to its bucket instead of walking from
// the lowest one; consecutive queries for a slowly moving rank take O(1)
// steps and at most one math.Exp.
type quantileCursor struct {
	b     int
	below uint64
	repB  int
	rep   float64
}

// exemplar ties a bucket to one representative task: the task of the
// largest value recorded in the bucket (first seen wins ties, so replaying
// the same event stream reproduces the same exemplars).
type exemplar struct {
	task int
	val  float64
	ok   bool
}

// exZeroBucket stands in for the zero bucket in QuantileExemplar's rank
// walk; real bucket indices of positive values never reach it.
const exZeroBucket = math.MinInt

// histBase is the lower edge of bucket 0; values this small are far below
// any meaningful flow time, so the bucket index of real observations stays
// moderate.
const histBase = 1e-12

// growth is every histogram's per-bucket growth factor: 2^(1/8) ≈ 1.0905,
// eight buckets per doubling (≈ 4.4% worst-case quantile error, see
// Quantile). logGrowth and logBase are the logs of growth and histBase that
// bucket indices and representatives are computed from.
var (
	growth    = math.Pow(2, 0.125)
	logGrowth = math.Log(growth)
	logBase   = math.Log(histBase)
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Growth returns the per-bucket growth factor.
func (h *Histogram) Growth() float64 { return growth }

// RelativeError returns the documented worst-case relative error of
// Quantile: √growth − 1.
func (h *Histogram) RelativeError() float64 { return math.Sqrt(growth) - 1 }

// bucketOf returns the bucket index of a positive value.
func (h *Histogram) bucketOf(v float64) int {
	return int(math.Floor((math.Log(v) - logBase) / logGrowth))
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.observe(v) }

// observe records one value and returns its bucket index, or ok = false
// for a value in the zero bucket.
func (h *Histogram) observe(v float64) (idx int, ok bool) {
	h.count++
	h.sum += v
	if !h.observed || v < h.minSeen {
		h.minSeen = v
	}
	if !h.observed || v > h.maxSeen {
		h.maxSeen = v
	}
	h.observed = true
	if v <= 0 || math.IsNaN(v) {
		h.zeros++
		return 0, false
	}
	idx = h.bucketOf(v)
	if h.counts == nil {
		h.counts = make([]uint64, 1, 64)
		h.lo = idx
		h.cur = quantileCursor{b: idx, repB: math.MinInt}
	}
	if idx < h.cur.b {
		h.cur.below++
	}
	switch {
	case idx < h.lo:
		grown := make([]uint64, len(h.counts)+(h.lo-idx))
		copy(grown[h.lo-idx:], h.counts)
		h.counts, h.lo = grown, idx
	case idx >= h.lo+len(h.counts):
		for idx >= h.lo+len(h.counts) {
			h.counts = append(h.counts, 0)
		}
	}
	h.counts[idx-h.lo]++
	return idx, true
}

// ObserveExemplar records one value attributed to a task, additionally
// remembering the task behind each bucket's largest value so quantile
// queries can answer "show me the trace behind this" (QuantileExemplar).
// Ties keep the first-seen task, so a deterministic event stream yields
// deterministic exemplars.
func (h *Histogram) ObserveExemplar(v float64, task int) {
	idx, ok := h.observe(v)
	if !ok {
		h.setExemplar(&h.exZero, v, task)
		return
	}
	if h.exLo != h.lo || len(h.ex) != len(h.counts) {
		// counts grew (or this is the first exemplar): re-align the mirror.
		if h.ex == nil {
			h.exLo = h.lo
		}
		grown := make([]exemplar, len(h.counts))
		copy(grown[h.exLo-h.lo:], h.ex)
		h.ex, h.exLo = grown, h.lo
	}
	h.setExemplar(&h.ex[idx-h.lo], v, task)
}

func (h *Histogram) setExemplar(e *exemplar, v float64, task int) {
	if e.ok && e.val >= v {
		return
	}
	if !e.ok {
		h.exN++
	}
	*e = exemplar{task: task, val: v, ok: true}
}

// Exemplars returns the number of buckets carrying an exemplar.
func (h *Histogram) Exemplars() int { return h.exN }

// QuantileExemplar returns Quantile(q) together with the exemplar task of
// the bucket the quantile falls in: the task behind the bucket's largest
// recorded value, or −1 when the bucket carries no exemplar (values
// recorded through plain Observe, or an empty histogram).
func (h *Histogram) QuantileExemplar(q float64) (float64, int) {
	v, idx := h.quantile(q)
	if h.count == 0 || h.exN == 0 {
		return v, -1
	}
	e := h.exZero
	if idx != exZeroBucket {
		e = exemplar{}
		if i := idx - h.exLo; h.ex != nil && i >= 0 && i < len(h.ex) {
			e = h.ex[i]
		}
	}
	if e.ok {
		return v, e.task
	}
	return v, -1
}

// Count returns the number of observations.
func (h *Histogram) Count() int { return int(h.count) }

// Sum returns the exact running sum of observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the exact mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the exact smallest observation (0 when empty).
func (h *Histogram) Min() float64 {
	if !h.observed {
		return 0
	}
	return h.minSeen
}

// Max returns the exact largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if !h.observed {
		return 0
	}
	return h.maxSeen
}

// Buckets returns the number of allocated buckets — the memory bound.
func (h *Histogram) Buckets() int { return len(h.counts) }

// Quantile returns an approximation of the q-quantile (q clamped to [0,1];
// 0 when empty): the log-bucket representative — the geometric midpoint of
// the bucket's edges, clamped to the observed [Min, Max] — of the order
// statistic of rank ⌊q·(Count−1)⌋. The representative is within a factor
// √growth of every value in its bucket, so the result is within relative
// error √growth − 1 of that order statistic; the exact (interpolated)
// quantile lies between ranks ⌊q·(Count−1)⌋ and ⌈q·(Count−1)⌉, one
// log-bucket's error away (property-tested against stats.Quantile in
// internal/sim).
func (h *Histogram) Quantile(q float64) float64 {
	v, _ := h.quantile(q)
	return v
}

// quantile returns Quantile(q) and the bucket the order statistic falls in
// (exZeroBucket for the zero bucket or an empty histogram). It moves the
// cursor to that bucket: down while observations below it outnumber the
// rank, then up while the rank lies past it. The bucket holding the rank is
// unique, so the cursor lands where a walk from the lowest bucket would.
func (h *Histogram) quantile(q float64) (float64, int) {
	if h.count == 0 {
		return 0, exZeroBucket
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Floor(q * float64(h.count-1))) // 0-based order statistic
	if rank < h.zeros {
		return h.clamp(0), exZeroBucket
	}
	r, c := rank-h.zeros, &h.cur // rank among the positive observations
	for c.below > r {
		c.b--
		c.below -= h.counts[c.b-h.lo]
	}
	for c.below+h.counts[c.b-h.lo] <= r {
		c.below += h.counts[c.b-h.lo]
		c.b++
	}
	if c.repB != c.b {
		c.repB, c.rep = c.b, math.Exp(logBase+(float64(c.b)+0.5)*logGrowth)
	}
	return h.clamp(c.rep), c.b
}

// clamp bounds a bucket representative by the exactly-tracked extremes.
func (h *Histogram) clamp(v float64) float64 {
	if v < h.minSeen {
		return h.minSeen
	}
	if v > h.maxSeen {
		return h.maxSeen
	}
	return v
}

// WriteProm writes the histogram as a Prometheus summary: quantile gauges
// plus _sum and _count.
func (h *Histogram) WriteProm(w io.Writer, name string) error {
	if _, err := fmt.Fprintf(w, "# HELP %s Streaming log-bucketed distribution (max relative error %.3g).\n# TYPE %s summary\n",
		name, h.RelativeError(), name); err != nil {
		return err
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if _, err := fmt.Fprintf(w, "%s{quantile=%q} %g\n", name, fmt.Sprintf("%g", q), h.Quantile(q)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, h.sum, name, h.count)
	return err
}

// HistogramProbe is a Sink streaming completed requests' flow times and
// stretches into two histograms.
type HistogramProbe struct {
	Flow    *Histogram // flow time C_i − r_i
	Stretch *Histogram // stretch (C_i − r_i) / p_i
}

// NewHistogramProbe returns a sink with two empty histograms.
func NewHistogramProbe() *HistogramProbe {
	return &HistogramProbe{Flow: NewHistogram(), Stretch: NewHistogram()}
}

// Observe implements Sink: each completion is observed with its task id as
// the bucket exemplar, so the tail quantiles always name a concrete task
// whose trace explains them. Other kinds are ignored.
func (p *HistogramProbe) Observe(e Event) {
	if e.Kind != Complete {
		return
	}
	flow, proc := e.At-e.T1, e.T2
	p.Flow.ObserveExemplar(flow, e.Task)
	if proc > 0 {
		p.Stretch.ObserveExemplar(flow/proc, e.Task)
	} else {
		p.Stretch.ObserveExemplar(0, e.Task) // no engine sends p ≤ 0; a hand-fed one counts as stretch 0
	}
}
