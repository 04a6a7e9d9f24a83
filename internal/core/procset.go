// Package core defines the scheduling model of the paper: tasks with release
// times, processing times and processing set restrictions, instances on m
// identical machines, schedules, and the max-flow objective
// Fmax = max_i (C_i - r_i).
//
// Machines are indexed 0..m-1 internally; the paper uses 1-based indices, so
// display helpers add one where it matters.
package core

import (
	"fmt"
	"sort"
)

// ProcSet is a processing set restriction: the sorted set of machine indices
// (0-based) allowed to process a task. A nil ProcSet means "all machines".
// ProcSets are value types; mutating methods return new sets.
type ProcSet []int

// AllMachines is the nil ProcSet, meaning no restriction.
var AllMachines ProcSet

// NewProcSet builds a normalized (sorted, deduplicated) ProcSet from the
// given machine indices. It always returns a non-nil set (possibly empty);
// the unrestricted set is represented by nil / AllMachines, never built here.
func NewProcSet(machines ...int) ProcSet {
	s := make(ProcSet, len(machines))
	copy(s, machines)
	sort.Ints(s)
	// Deduplicate in place.
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Interval returns the ProcSet {lo, lo+1, ..., hi} (inclusive, 0-based).
// It panics if lo > hi.
func Interval(lo, hi int) ProcSet {
	if lo > hi {
		panic(fmt.Sprintf("core.Interval: lo %d > hi %d", lo, hi))
	}
	s := make(ProcSet, 0, hi-lo+1)
	for j := lo; j <= hi; j++ {
		s = append(s, j)
	}
	return s
}

// RingInterval returns the circular interval of size k starting at machine
// start on a ring of m machines: {start, start+1, ..., start+k-1} mod m.
// This is the I_k(u) construction of Section 7.2 (overlapping strategy).
// Invalid parameters — k outside [1, m], e.g. a scale-down shrinking the
// ring below the replication factor — are reported as an error, not a panic
// (surfaced up front by replicate.ValidateReplication).
func RingInterval(start, k, m int) (ProcSet, error) {
	if k <= 0 || m <= 0 || k > m {
		return nil, fmt.Errorf("core.RingInterval: interval size k=%d outside [1, m=%d]", k, m)
	}
	s := make([]int, 0, k)
	for i := 0; i < k; i++ {
		s = append(s, ((start+i)%m+m)%m)
	}
	return NewProcSet(s...), nil
}

// MustRingInterval is RingInterval for parameters already validated (e.g.
// via replicate.CheckK); it panics on the error path.
func MustRingInterval(start, k, m int) ProcSet {
	s, err := RingInterval(start, k, m)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// ValidOn reports whether the set is a valid processing set on m machines:
// nil (every machine), or non-empty with members in [0, m) listed in
// strictly increasing order.
func (s ProcSet) ValidOn(m int) bool {
	if s == nil {
		return true
	}
	if len(s) == 0 || s[0] < 0 || s[len(s)-1] >= m {
		return false
	}
	for k := 1; k < len(s); k++ {
		if s[k] <= s[k-1] {
			return false
		}
	}
	return true
}

// Len reports the number of machines in the set; a nil set has length 0 but
// means "unrestricted" (use IsAll to distinguish).
func (s ProcSet) Len() int { return len(s) }

// IsAll reports whether the set is the unrestricted set (nil).
func (s ProcSet) IsAll() bool { return s == nil }

// Contains reports whether machine j belongs to the set. The unrestricted
// set contains every machine.
func (s ProcSet) Contains(j int) bool {
	if s == nil {
		return true
	}
	i := sort.SearchInts(s, j)
	return i < len(s) && s[i] == j
}

// Equal reports whether two sets contain exactly the same machines. Two nil
// sets are equal; a nil set never equals a non-nil set.
func (s ProcSet) Equal(t ProcSet) bool {
	if (s == nil) != (t == nil) {
		return false
	}
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether s ⊆ t. A nil (unrestricted) set is a subset only
// of another nil set; every set is a subset of the unrestricted set.
func (s ProcSet) SubsetOf(t ProcSet) bool {
	if t == nil {
		return true
	}
	if s == nil {
		return false
	}
	i := 0
	for _, v := range s {
		for i < len(t) && t[i] < v {
			i++
		}
		if i >= len(t) || t[i] != v {
			return false
		}
	}
	return true
}

// Intersects reports whether s ∩ t ≠ ∅. The unrestricted set intersects
// every non-empty set.
func (s ProcSet) Intersects(t ProcSet) bool {
	if s == nil {
		return t == nil || len(t) > 0
	}
	if t == nil {
		return len(s) > 0
	}
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] == t[j]:
			return true
		case s[i] < t[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Intersect returns s ∩ t as a new set. Intersecting with the unrestricted
// set returns a copy of the other operand.
func (s ProcSet) Intersect(t ProcSet) ProcSet {
	if s == nil {
		return t.Clone()
	}
	if t == nil {
		return s.Clone()
	}
	var out ProcSet
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] == t[j]:
			out = append(out, s[i])
			i++
			j++
		case s[i] < t[j]:
			i++
		default:
			j++
		}
	}
	if out == nil {
		out = ProcSet{}
	}
	return out
}

// Union returns s ∪ t as a new set. A nil operand makes the union
// unrestricted (nil).
func (s ProcSet) Union(t ProcSet) ProcSet {
	if s == nil || t == nil {
		return nil
	}
	out := make(ProcSet, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) || j < len(t) {
		switch {
		case j >= len(t) || (i < len(s) && s[i] < t[j]):
			out = append(out, s[i])
			i++
		case i >= len(s) || t[j] < s[i]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Minus returns s \ t as a new set (nil s is treated as an error-free no-op
// and returns nil, since the complement of a finite set is not representable).
func (s ProcSet) Minus(t ProcSet) ProcSet {
	if s == nil {
		return nil
	}
	out := make(ProcSet, 0, len(s))
	for _, v := range s {
		if !t.Contains(v) {
			out = append(out, v)
		}
	}
	return out
}

// Clone returns a copy of the set; nil stays nil.
func (s ProcSet) Clone() ProcSet {
	if s == nil {
		return nil
	}
	out := make(ProcSet, len(s))
	copy(out, s)
	return out
}

// Min returns the smallest machine index in the set. It panics on an empty
// non-nil set, and returns 0 for the unrestricted set.
func (s ProcSet) Min() int {
	if s == nil {
		return 0
	}
	if len(s) == 0 {
		panic("core.ProcSet.Min: empty set")
	}
	return s[0]
}

// Max returns the largest machine index in the set, or m-1 is unknown for
// the unrestricted set so it panics there; callers should resolve nil sets
// against the instance first.
func (s ProcSet) Max() int {
	if len(s) == 0 {
		panic("core.ProcSet.Max: empty or unrestricted set")
	}
	return s[len(s)-1]
}

// Resolve returns the concrete machine set for an instance with m machines:
// the set itself, or {0..m-1} if unrestricted.
func (s ProcSet) Resolve(m int) ProcSet {
	if s == nil {
		return Interval(0, m-1)
	}
	return s
}

// IsContiguous reports whether the set is a non-empty contiguous interval
// {a..b} of machine indices.
func (s ProcSet) IsContiguous() bool {
	if len(s) == 0 {
		return false
	}
	return s[len(s)-1]-s[0] == len(s)-1
}

// IsCircularInterval reports whether the set is a non-empty interval on the
// ring of m machines: either contiguous, or a "wrap-around" set of the form
// {0..a} ∪ {b..m-1}. This matches the paper's M_i(interval) definition,
// which allows both {a_i..b_i} and its two-sided complement form.
//
// It allocates nothing for sets within [0, m): a wrap-around set is one
// that holds 0 and m-1 with exactly one gap between consecutive members.
func (s ProcSet) IsCircularInterval(m int) bool {
	if len(s) == 0 || len(s) > m {
		return false
	}
	if s.IsContiguous() {
		return true
	}
	if s[0] < 0 || s[len(s)-1] >= m {
		// Members off the ring: the complement within 0..m-1 must be
		// contiguous.
		comp := Interval(0, m-1).Minus(s)
		return len(comp) == 0 || comp.IsContiguous()
	}
	gaps := 0
	for i := 1; i < len(s); i++ {
		if s[i]-s[i-1] > 1 {
			gaps++
		}
	}
	return s[0] == 0 && s[len(s)-1] == m-1 && gaps == 1
}

// String renders the set in the paper's 1-based notation, e.g. {M1,M2,M3},
// or {*} for the unrestricted set.
func (s ProcSet) String() string {
	if s == nil {
		return "{*}"
	}
	b := []byte{'{'}
	for i, v := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, fmt.Sprintf("M%d", v+1)...)
	}
	return string(append(b, '}'))
}
