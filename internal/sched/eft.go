package sched

import (
	"fmt"
	"math"

	"flowsched/internal/core"
)

// EFT is the Earliest Finish Time immediate-dispatch scheduler (Algorithm 2):
// each released task T_i goes to the machine of its processing set M_i that
// can finish it the earliest, i.e. a machine of
//
//	U'_i = { M_j ∈ M_i : C_{j,i-1} ≤ t'_min,i },
//	t'_min,i = max(r_i, min_{M_j ∈ M_i} C_{j,i-1}),
//
// with ties broken by the configured TieBreak policy (Equation (2)).
// The zero value with a nil Tie uses EFT-Min. EFT is clairvoyant: it relies
// on exact processing times to maintain machine completion times.
type EFT struct {
	Tie TieBreak

	completion []core.Time
	candidates []int // scratch buffer for the tie set
}

// NewEFT returns an EFT scheduler with the given tie-break (nil means Min).
func NewEFT(tie TieBreak) *EFT { return &EFT{Tie: tie} }

// Name implements Online.
func (e *EFT) Name() string {
	if e.Tie == nil {
		return "EFT-Min"
	}
	return "EFT-" + e.Tie.Name()
}

// Reset implements Online.
func (e *EFT) Reset(m int) {
	e.completion = make([]core.Time, m)
	e.candidates = make([]int, 0, m)
}

// Completion returns machine j's current completion time C_{j,i-1}.
func (e *EFT) Completion(j int) core.Time { return e.completion[j] }

// Completions returns a copy of all machine completion times.
func (e *EFT) Completions() []core.Time {
	out := make([]core.Time, len(e.completion))
	copy(out, e.completion)
	return out
}

// WaitingWork returns w_t(j) = max(0, C_j - t) for every machine: the work
// allocated and not yet processed at time t (the paper's schedule profile).
func (e *EFT) WaitingWork(t core.Time) []core.Time {
	out := make([]core.Time, len(e.completion))
	for j, c := range e.completion {
		if c > t {
			out[j] = c - t
		}
	}
	return out
}

// TieSet returns the candidate machines U'_i for a task released at r with
// processing set set, i.e. the eligible machines whose completion time is at
// most t'_min = max(r, min over the set). The returned slice is valid until
// the next call; building it allocates nothing.
func (e *EFT) TieSet(r core.Time, set core.ProcSet) []int {
	m := len(e.completion)
	var tmin core.Time
	if set == nil {
		if m == 0 {
			return e.candidates[:0]
		}
		tmin = e.completion[0]
		for _, c := range e.completion[1:] {
			if c < tmin {
				tmin = c
			}
		}
	} else {
		if len(set) == 0 {
			return e.candidates[:0]
		}
		tmin = e.completion[set[0]]
		for _, j := range set[1:] {
			if c := e.completion[j]; c < tmin {
				tmin = c
			}
		}
	}
	if r > tmin {
		tmin = r
	}
	e.candidates = e.candidates[:0]
	if set == nil {
		for j := 0; j < m; j++ {
			if e.completion[j] <= tmin {
				e.candidates = append(e.candidates, j)
			}
		}
	} else {
		for _, j := range set {
			if e.completion[j] <= tmin {
				e.candidates = append(e.candidates, j)
			}
		}
	}
	return e.candidates
}

// Dispatch implements Online. Under MinTie and MaxTie (and a nil Tie) it
// makes one pass over the set: by Eq. (2) the machines of U'_i are those of
// earliest start max(C_j, r), so it keeps the first member of least start
// key (Min, updating on <) or the last (Max, on <=), the key being the
// Float64bits of max(C_j, r) with a release that is not positive taken as
// +0. Completions are positive or +0 for tasks of positive processing time,
// and such floats order as their bits, so the pick takes no float compare
// and is the machine Tie.Pick(TieSet(r, set)) returns. Other tie-breaks
// pick from TieSet.
func (e *EFT) Dispatch(t core.Task) Decision {
	var j int
	switch e.Tie.(type) {
	case nil, MinTie:
		j = e.earliest(t.Release, t.Set, false)
	case MaxTie:
		j = e.earliest(t.Release, t.Set, true)
	default:
		j = e.Tie.Pick(e.TieSet(t.Release, t.Set))
	}
	start := e.completion[j]
	if t.Release > start {
		start = t.Release
	}
	e.completion[j] = start + t.Proc
	return Decision{Machine: j, Start: start}
}

// earliest is the first (or, with last, the last) machine of set — every
// machine when set is nil — of least start key; see Dispatch. It returns −1
// for an empty set. A nil set ranges over the completions directly: reading
// them through a list of every machine made full-set runs about 10% slower.
func (e *EFT) earliest(r core.Time, set core.ProcSet, last bool) int {
	var floor uint64 // a NaN release is floored too, as TieSet ignores it
	if r > 0 {
		floor = math.Float64bits(r)
	}
	best, pick := uint64(math.MaxUint64), -1
	switch {
	case set == nil && last:
		for j, c := range e.completion {
			if k := max(math.Float64bits(c), floor); k <= best {
				best, pick = k, j
			}
		}
	case set == nil:
		for j, c := range e.completion {
			if k := max(math.Float64bits(c), floor); k < best {
				best, pick = k, j
			}
		}
	case last:
		for _, j := range set {
			if k := max(math.Float64bits(e.completion[j]), floor); k <= best {
				best, pick = k, j
			}
		}
	default:
		for _, j := range set {
			if k := max(math.Float64bits(e.completion[j]), floor); k < best {
				best, pick = k, j
			}
		}
	}
	return pick
}

// Run implements Algorithm.
func (e *EFT) Run(inst *core.Instance) (*core.Schedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", e.Name(), err)
	}
	return RunOnline(e, inst), nil
}
