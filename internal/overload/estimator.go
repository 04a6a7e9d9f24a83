package overload

import (
	"encoding/binary"
	"fmt"
	"math"

	"flowsched/internal/core"
	"flowsched/internal/loadlp"
	"flowsched/internal/replicate"
)

// Estimator is the SLO guard's capacity side: it tracks the offered load —
// an EWMA over observed inter-arrival times, globally and per replication
// set — and compares it against the cluster capacity λ* from LP (15)
// (loadlp.Model.MaxLoad). When the estimated arrival rate exceeds
// Headroom × λ*, the guard raises a brownout signal that admission policies,
// probes and operators can consume; the estimator itself rejects nothing.
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

	sets  []core.ProcSet // deduplicated replication sets; nil when untracked
	setOf []int          // primary machine -> index into sets (−1 untracked)

	last    core.Time
	seen    int
	ia      float64 // EWMA inter-arrival time, all tasks
	setLast []core.Time
	setSeen []int
	setIA   []float64
	brown   bool
}

// NewEstimator builds the guard for a popularity weight vector and a
// replication strategy: capacity comes from LP (15) (loadlp.Model.MaxLoad)
// and the offered load is additionally tracked per distinct replication set,
// so HottestSet can point at the saturating shard. A nil set from the
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
	model := loadlp.NewModel(weights, strategy)
	e := &Estimator{Capacity: model.MaxLoad()}
	e.setOf = make([]int, m)
	index := make(map[string]int, m) // setKey → index into e.sets
	var key []byte
	for u := 0; u < m; u++ {
		set := model.Sets[u]
		key = setKey(key[:0], set)
		idx, ok := index[string(key)]
		if !ok {
			idx = len(e.sets) // first-seen order: HottestSet breaks ties by it
			index[string(key)] = idx
			e.sets = append(e.sets, set)
		}
		e.setOf[u] = idx
	}
	e.setLast = make([]core.Time, len(e.sets))
	e.setSeen = make([]int, len(e.sets))
	e.setIA = make([]float64, len(e.sets))
	return e, nil
}

// setKey appends set's members to buf, encoded so that two sets get the
// same key exactly when ProcSet.Equal holds: members in order as varints
// behind a marker byte, and no bytes at all for the nil set.
func setKey(buf []byte, set core.ProcSet) []byte {
	if set == nil {
		return buf
	}
	buf = append(buf, 's')
	for _, j := range set {
		buf = binary.AppendVarint(buf, int64(j))
	}
	return buf
}

// NewEstimatorCapacity builds a guard with a known capacity and no per-set
// tracking (HottestSet reports nothing).
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
	if e.setOf != nil && len(e.setOf) != m {
		return fmt.Errorf("overload: estimator built for %d machines, run has %d", len(e.setOf), m)
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
	for i := range e.setIA {
		e.setLast[i], e.setSeen[i], e.setIA[i] = 0, 0, 0
	}
}

// Reset clears the per-run tracking state so the estimator can be reused
// across runs. Config.Reset calls it for a guard attached to an overload
// config; an estimator driving only an elastic autoscaler is reset by the
// simulator directly.
func (e *Estimator) Reset() { e.reset() }

// Observe records one arrival at instant now whose key's primary machine is
// primary (−1 or out of range skips the per-set tracking).
func (e *Estimator) Observe(now core.Time, primary int) {
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
	if e.setOf != nil && primary >= 0 && primary < len(e.setOf) {
		i := e.setOf[primary]
		if e.setSeen[i] > 0 {
			gap := float64(now - e.setLast[i])
			if e.setSeen[i] == 1 {
				e.setIA[i] = gap
			} else {
				a := e.alpha()
				e.setIA[i] = a*gap + (1-a)*e.setIA[i]
			}
		}
		e.setLast[i] = now
		e.setSeen[i]++
	}
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

// HottestSet returns the replication set with the highest estimated load
// per replica and that load (λ̂_S / |S|). It returns (nil, 0) when per-set
// tracking is off or no set has seen two arrivals.
func (e *Estimator) HottestSet() (core.ProcSet, float64) {
	var best core.ProcSet
	bestLoad := 0.0
	for i, s := range e.sets {
		if e.setSeen[i] < 2 || e.setIA[i] <= 0 || len(s) == 0 {
			continue
		}
		load := 1 / e.setIA[i] / float64(len(s))
		if load > bestLoad {
			best, bestLoad = s, load
		}
	}
	return best, bestLoad
}
