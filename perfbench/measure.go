package main

import (
	"math"
	"math/rand"
	"runtime/metrics"
	"sort"
	"time"
)

// Reference loop: the host-speed yardstick every timing is scaled by. It
// dispatches a fixed array of refTasks unit tasks onto refMachines machines,
// earliest-available machine first (ties to the lowest index), through a
// hand-written binary heap that writes into preallocated arrays. That is the
// kind of work the simulator does — heap sifts, float compares, array
// stores — without calling it, so a change to the program cannot change the
// yardstick, and it allocates nothing, so it cannot trigger a GC.
const (
	refTasks    = 200_000
	refMachines = 15
)

type refLoop struct {
	release []float64
	machine []int32
	start   []float64
	heapAt  [refMachines]float64
	heapID  [refMachines]int32
	sink    float64
}

func newRefLoop() *refLoop {
	r := &refLoop{
		release: make([]float64, refTasks),
		machine: make([]int32, refTasks),
		start:   make([]float64, refTasks),
	}
	rng := rand.New(rand.NewSource(20220530))
	t := 0.0
	for i := range r.release {
		t += rng.ExpFloat64() / (0.9 * refMachines)
		r.release[i] = t
	}
	return r
}

func (r *refLoop) less(a, b int) bool {
	if r.heapAt[a] != r.heapAt[b] {
		return r.heapAt[a] < r.heapAt[b]
	}
	return r.heapID[a] < r.heapID[b]
}

func (r *refLoop) dispatch() float64 {
	for j := range r.heapAt {
		r.heapAt[j], r.heapID[j] = 0, int32(j)
	}
	var flow float64
	for i, rel := range r.release {
		s := r.heapAt[0]
		if rel > s {
			s = rel
		}
		r.machine[i], r.start[i] = r.heapID[0], s
		r.heapAt[0] = s + 1
		flow += s + 1 - rel
		for p := 0; ; {
			c := 2*p + 1
			if c >= refMachines {
				break
			}
			if c+1 < refMachines && r.less(c+1, c) {
				c++
			}
			if !r.less(c, p) {
				break
			}
			r.heapAt[p], r.heapAt[c] = r.heapAt[c], r.heapAt[p]
			r.heapID[p], r.heapID[c] = r.heapID[c], r.heapID[p]
			p = c
		}
	}
	return flow
}

// refReps is how many back-to-back runs of the loop make one reference
// timing; their median damps a single run caught by an interrupt.
const refReps = 5

// time runs the loop refReps times and returns the median wall time of one
// run, in milliseconds.
func (r *refLoop) time() float64 {
	var ms [refReps]float64
	for i := range ms {
		t0 := time.Now()
		r.sink += r.dispatch()
		ms[i] = msSince(t0)
	}
	sort.Float64s(ms[:])
	return ms[refReps/2]
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// speedFactor is the scale applied to every raw timing of one pass:
// nominal ÷ the mean of the reference timings taken right before and right
// after it. A host running 20% slow stretches both the pass and the
// reference by 20%, and the product cancels it.
func speedFactor(nominalMs, refBeforeMs, refAfterMs float64) float64 {
	return nominalMs / ((refBeforeMs + refAfterMs) / 2)
}

// quantile is the linear-interpolation quantile of a sorted sample (the
// R-7 / NumPy default), 0 for an empty one.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// maxAndQuantile returns the maximum and the q-quantile (as quantile
// computes it) of xs without sorting it: a quickselect of the lower order
// statistic, the upper one being the minimum of what lies above it. xs is
// reordered.
func maxAndQuantile(xs []float64, q float64) (max, qv float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	pos := q * float64(n-1)
	k := int(math.Floor(pos))
	lo, hi := 0, n-1
	for lo < hi {
		pivot := xs[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			lo, hi = k, k
		}
	}
	qv, max = xs[k], xs[k]
	if k+1 < n {
		next := xs[k+1]
		for _, x := range xs[k+1:] {
			if x < next {
				next = x
			}
			if x > max {
				max = x
			}
		}
		qv += (pos - float64(k)) * (next - qv)
	}
	return max, qv
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailLadder lists the percentiles a tail may be reported at, lowest first.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tail picks the highest ladder percentile, at most maxPct, that still has
// at least minBeyond samples strictly above it, and returns the percentile,
// its value and the number of samples beyond it. With too few samples for
// even the median it reports the maximum (percentile 100, nothing beyond).
//
// Each workload caps the percentile at the highest one its run length
// supports, so a change that makes calls faster, and so gives a run more of
// them, is still compared at the same percentile.
func tail(xs []float64, minBeyond int, maxPct float64) (pct, value float64, beyond int) {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 100, 0, 0
	}
	pct, value, beyond = 100, s[len(s)-1], 0
	for _, p := range tailLadder {
		if p > maxPct {
			break
		}
		v := quantile(s, p/100)
		above := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
		if above < minBeyond {
			break
		}
		pct, value, beyond = p, v, above
	}
	return pct, value, beyond
}

// minCalls is the smallest sample that leaves 10 calls beyond percentile
// pct. A run makes at least this many calls, however slow the host, so its
// tail is always reported at the workload's percentile.
func minCalls(pct float64) int {
	q := pct / 100
	n := 1
	for n-1-int(math.Floor(q*float64(n-1))) < 10 {
		n++
	}
	return n
}

// allocMeter reads the runtime's cumulative count of heap bytes allocated
// and of automatic GC cycles. It does not stop the world, so it is cheap
// enough to bracket every timed call.
type allocMeter struct{ sample []metrics.Sample }

func newAllocMeter() *allocMeter {
	return &allocMeter{sample: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/automatic:gc-cycles"},
	}}
}

func (a *allocMeter) read() (allocBytes, gcCycles uint64) {
	metrics.Read(a.sample)
	return a.sample[0].Value.Uint64(), a.sample[1].Value.Uint64()
}

// allocPerTask is the heap bytes allocated inside timed calls per task
// those calls processed.
func allocPerTask(bytes uint64, tasks int) float64 {
	if tasks == 0 {
		return 0
	}
	return float64(bytes) / float64(tasks)
}
