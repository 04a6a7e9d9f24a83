package overload

import (
	"fmt"
	"math"

	"flowsched/internal/core"
	"flowsched/internal/loadlp"
	"flowsched/internal/replicate"
)

// Estimator is the SLO guard's capacity side: it tracks the offered load —
// an EWMA over observed inter-arrival times — and compares it against the
// cluster capacity λ* from LP (15) (loadlp.Model.MaxLoad). When the
// estimated arrival rate exceeds Headroom × λ*, the guard raises a brownout
// signal that admission policies, probes and operators can consume; the
// estimator itself rejects nothing.
type Estimator struct {
	// Capacity is λ*, the maximal sustainable arrival rate. NewEstimator
	// fills it from LP (15); it can also be set directly (tasks per time
	// unit, finite and non-negative).
	Capacity float64
	// Headroom is the brownout threshold as a fraction of Capacity
	// (default 0.9).
	Headroom float64
	// Alpha is the EWMA weight per inter-arrival observation (default 0.05:
	// roughly a 20-arrival window).
	Alpha float64
	// MinSamples is the number of arrivals before the brownout signal can
	// assert (default 20).
	MinSamples int

	m int // machines the LP capacity was computed for; 0 when set directly

	last  core.Time
	seen  int
	ia    float64 // EWMA inter-arrival time
	brown bool
}

// NewEstimator builds the guard for a popularity weight vector and a
// replication strategy: capacity comes from LP (15) (loadlp.Model.MaxLoad),
// and the guard only fits runs on len(weights) machines. A nil set from the
// strategy means all machines. The weights must pass loadlp.CheckWeights.
func NewEstimator(weights []float64, strategy replicate.Strategy) (*Estimator, error) {
	if err := loadlp.CheckWeights(weights); err != nil {
		return nil, fmt.Errorf("overload: %w", err)
	}
	m := len(weights)
	if strategy == nil {
		strategy = replicate.None{}
	}
	if err := replicate.Validate(strategy, m); err != nil {
		return nil, fmt.Errorf("overload: %w", err)
	}
	return &Estimator{Capacity: loadlp.NewModel(weights, strategy).MaxLoad(), m: m}, nil
}

// NewEstimatorCapacity builds a guard with a known capacity, for a cluster
// of any size.
func NewEstimatorCapacity(capacity float64) *Estimator {
	return &Estimator{Capacity: capacity}
}

func (e *Estimator) validate(m int) error {
	if !(e.Capacity >= 0) || math.IsInf(e.Capacity, 1) {
		return fmt.Errorf("overload: estimator capacity %v, want finite and non-negative", e.Capacity)
	}
	if e.Headroom < 0 {
		return fmt.Errorf("overload: negative estimator headroom %v", e.Headroom)
	}
	if e.Alpha < 0 || e.Alpha > 1 {
		return fmt.Errorf("overload: estimator alpha %v outside [0,1]", e.Alpha)
	}
	if e.m > 0 && e.m != m {
		return fmt.Errorf("overload: estimator built for %d machines, run has %d", e.m, m)
	}
	return nil
}

func (e *Estimator) headroom() float64 {
	if e.Headroom > 0 {
		return e.Headroom
	}
	return 0.9
}

func (e *Estimator) alpha() float64 {
	if e.Alpha > 0 {
		return e.Alpha
	}
	return 0.05
}

func (e *Estimator) minSamples() int {
	if e.MinSamples > 0 {
		return e.MinSamples
	}
	return 20
}

func (e *Estimator) reset() {
	e.last, e.seen, e.ia, e.brown = 0, 0, 0, false
}

// Reset clears the per-run tracking state so the estimator can be reused
// across runs. Config.Reset calls it for a guard attached to an overload
// config; an estimator driving only an elastic autoscaler is reset by the
// simulator directly.
func (e *Estimator) Reset() { e.reset() }

// Observe records one arrival at instant now.
func (e *Estimator) Observe(now core.Time) {
	if e.seen > 0 {
		gap := float64(now - e.last)
		if e.seen == 1 {
			e.ia = gap
		} else {
			a := e.alpha()
			e.ia = a*gap + (1-a)*e.ia
		}
	}
	e.last = now
	e.seen++
	if e.seen >= e.minSamples() && e.Capacity > 0 {
		e.brown = e.OfferedLoad() > e.headroom()*e.Capacity
	}
}

// OfferedLoad returns the estimated arrival rate λ̂ (tasks per time unit),
// 0 before two arrivals.
func (e *Estimator) OfferedLoad() float64 {
	if e.seen < 2 || e.ia <= 0 {
		return 0
	}
	return 1 / e.ia
}

// Utilization returns λ̂ / λ* (0 when capacity is unknown).
func (e *Estimator) Utilization() float64 {
	if e.Capacity <= 0 {
		return 0
	}
	return e.OfferedLoad() / e.Capacity
}

// Brownout reports whether the offered load currently exceeds
// Headroom × Capacity.
func (e *Estimator) Brownout() bool { return e.brown }
