package overload

import (
	"fmt"

	"flowsched/internal/core"
)

// Ejector is passive outlier detection in the style of Envoy's outlier
// ejection: every final completion on server j updates an EWMA of that
// server's service-time inflation (observed service time / processing time —
// exactly the Factor of an active faults.Slowdown segment), and a server
// whose EWMA exceeds K × the cluster median is temporarily ejected from
// processing sets. Ejection is advisory routing pressure, not an outage: if
// every live machine of a task's set is ejected, the router sees the live
// set unfiltered, so ejection alone can never park or reject work. After
// Cooldown the server is re-admitted with fresh statistics.
type Ejector struct {
	// K is the ejection threshold multiplier over the cluster-median EWMA
	// (default 3).
	K float64
	// Alpha is the EWMA weight of each new observation (default 0.3).
	Alpha float64
	// Cooldown is how long an ejected server stays out (default 10 time
	// units).
	Cooldown core.Time
	// MinSamples is the number of completions a server must have produced
	// before it can be ejected (default 10).
	MinSamples int
	// MaxFraction caps the ejected share of the cluster (default 0.5);
	// ejections beyond the cap are skipped, mirroring Envoy's
	// max_ejection_percent.
	MaxFraction float64

	m          int
	ewma       []float64
	samples    []int
	ejected    []bool
	until      []core.Time
	numEjected int
	// sorted holds the EWMAs of the servers with at least one sample, in
	// ascending order: Observe replaces the server's entry, Readmit removes
	// it, and the cluster median is read off the middle.
	sorted []float64

	ejections int
	readmits  int
}

func (e *Ejector) validate() error {
	if e.K != 0 && e.K <= 1 {
		// The threshold is K× the cluster-median EWMA; K ≤ 1 would brand the
		// median server itself an outlier.
		return fmt.Errorf("overload: ejection factor K=%v must exceed 1 (0 = default %v)", e.K, (&Ejector{}).k())
	}
	if e.K < 0 || e.Alpha < 0 || e.Alpha > 1 || e.Cooldown < 0 || e.MinSamples < 0 {
		return fmt.Errorf("overload: invalid ejector (K=%v alpha=%v cooldown=%v minSamples=%d)",
			e.K, e.Alpha, e.Cooldown, e.MinSamples)
	}
	if e.MaxFraction < 0 || e.MaxFraction > 1 {
		return fmt.Errorf("overload: ejector MaxFraction %v outside [0,1]", e.MaxFraction)
	}
	return nil
}

func (e *Ejector) k() float64 {
	if e.K > 0 {
		return e.K
	}
	return 3
}

func (e *Ejector) alpha() float64 {
	if e.Alpha > 0 {
		return e.Alpha
	}
	return 0.3
}

func (e *Ejector) cooldown() core.Time {
	if e.Cooldown > 0 {
		return e.Cooldown
	}
	return 10
}

func (e *Ejector) minSamples() int {
	if e.MinSamples > 0 {
		return e.MinSamples
	}
	return 10
}

func (e *Ejector) maxFraction() float64 {
	if e.MaxFraction > 0 {
		return e.MaxFraction
	}
	return 0.5
}

func (e *Ejector) reset(m int) {
	e.m = m
	if cap(e.ewma) < m {
		e.ewma = make([]float64, m)
		e.samples = make([]int, m)
		e.ejected = make([]bool, m)
		e.until = make([]core.Time, m)
		e.sorted = make([]float64, 0, m)
	}
	e.ewma = e.ewma[:m]
	e.samples = e.samples[:m]
	e.ejected = e.ejected[:m]
	e.until = e.until[:m]
	for j := 0; j < m; j++ {
		e.ewma[j], e.samples[j], e.ejected[j], e.until[j] = 0, 0, false, 0
	}
	e.sorted = e.sorted[:0]
	e.numEjected, e.ejections, e.readmits = 0, 0, 0
}

// EjectedVec returns the per-server ejected flags (aliased, live).
func (e *Ejector) EjectedVec() []bool { return e.ejected }

// NumEjected returns how many servers are currently ejected.
func (e *Ejector) NumEjected() int { return e.numEjected }

// Ejections returns the total ejections of the run so far.
func (e *Ejector) Ejections() int { return e.ejections }

// Readmissions returns the total cooldown re-admissions of the run so far.
func (e *Ejector) Readmissions() int { return e.readmits }

// median returns the cluster-median EWMA over servers with at least one
// sample (0 when none have samples).
func (e *Ejector) median() float64 {
	xs := e.sorted
	if len(xs) == 0 {
		return 0
	}
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

// ewmaLess is sort.Float64s' order: NaN sorts first.
func ewmaLess(a, b float64) bool { return a < b || (a != a && b == b) }

// searchEWMA returns the first index of sorted whose entry is not less
// than x.
func (e *Ejector) searchEWMA(x float64) int {
	lo, hi := 0, len(e.sorted)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if ewmaLess(e.sorted[h], x) {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// insertEWMA adds x to sorted.
func (e *Ejector) insertEWMA(x float64) {
	k := e.searchEWMA(x)
	e.sorted = append(e.sorted, 0)
	copy(e.sorted[k+1:], e.sorted[k:])
	e.sorted[k] = x
}

// removeEWMA drops one entry x from sorted.
func (e *Ejector) removeEWMA(x float64) {
	i := e.searchEWMA(x)
	e.sorted = append(e.sorted[:i], e.sorted[i+1:]...)
}

// Observe records one final completion on server j with service-time
// inflation factor (service time / processing time, ≥ 1 when healthy) at
// instant now, and reports whether the observation newly ejected j.
func (e *Ejector) Observe(j int, factor float64, now core.Time) bool {
	if e.samples[j] == 0 {
		e.ewma[j] = factor
	} else {
		a := e.alpha()
		e.removeEWMA(e.ewma[j])
		e.ewma[j] = a*factor + (1-a)*e.ewma[j]
	}
	e.insertEWMA(e.ewma[j])
	e.samples[j]++
	if e.ejected[j] || e.samples[j] < e.minSamples() {
		return false
	}
	med := e.median()
	if med <= 0 || e.ewma[j] <= e.k()*med {
		return false
	}
	if float64(e.numEjected+1) > e.maxFraction()*float64(e.m) {
		return false
	}
	e.ejected[j] = true
	e.until[j] = now + e.cooldown()
	e.numEjected++
	e.ejections++
	return true
}

// Readmit re-admits every ejected server whose cooldown has expired at now,
// calling f (optional) per re-admitted server. Re-admission clears the
// server's statistics so the stale slow-period EWMA cannot re-eject it
// before fresh evidence accumulates.
func (e *Ejector) Readmit(now core.Time, f func(j int)) {
	if e.numEjected == 0 {
		return
	}
	for j := 0; j < e.m; j++ {
		if !e.ejected[j] || now < e.until[j] {
			continue
		}
		e.ejected[j] = false
		e.removeEWMA(e.ewma[j])
		e.ewma[j], e.samples[j], e.until[j] = 0, 0, 0
		e.numEjected--
		e.readmits++
		if f != nil {
			f(j)
		}
	}
}
