package elastic

import "flowsched/internal/core"

// RingStart returns the canonical walk origin of a processing set on a ring
// of capacity machine slots: for a circular interval I_k(u) it is u — the
// member whose ring predecessor is outside the set; for the unrestricted
// (nil) set it is −1 ("walk from slot 0"); a non-interval set is anchored at
// its smallest member. Full-ring sets start at 0.
func RingStart(set core.ProcSet, capacity int) int {
	if set == nil {
		return -1
	}
	if len(set) == 0 {
		return 0
	}
	if len(set) < capacity && set.IsCircularInterval(capacity) {
		for _, v := range set {
			if !set.Contains(((v-1)%capacity + capacity) % capacity) {
				return v
			}
		}
	}
	return set.Min()
}

// Effective computes a task's processing set under a membership snapshot:
// the first k active machines walking the ring clockwise from start (−1
// walks from slot 0). The result is appended into buf (resliced to zero) and
// returned sorted ascending, as core.ProcSet requires for its binary
// searches. Fewer than k active machines yield all of them; k ≤ 0 yields an
// empty set.
//
// This is the membership layer's one routing rule, shared verbatim between
// the engine's dispatch (sim.Config.Elastic) and the auditor (Membership.
// Eligible), so the invariant checker re-derives exactly what the engine
// offered the router.
func Effective(active []bool, start, k int, buf core.ProcSet) core.ProcSet {
	capacity := len(active)
	out := buf[:0]
	if k <= 0 || capacity == 0 {
		return out
	}
	j := 0
	if start > 0 {
		j = start % capacity
	}
	for i := 0; i < capacity && len(out) < k; i++ {
		if active[j] {
			out = append(out, j)
		}
		if j++; j == capacity {
			j = 0 // the ring wraps
		}
	}
	// The walk emits at most one descending step (the ring wrap); insertion
	// sort restores ascending order in O(len) for the common case.
	for i := 1; i < len(out); i++ {
		for x := i; x > 0 && out[x] < out[x-1]; x-- {
			out[x], out[x-1] = out[x-1], out[x]
		}
	}
	return out
}

// Change is one membership transition: slot Machine joined (at the end of
// its warm-up) or left (at the drain instant). Members is the membership
// size after the change. Changes are recorded in event order, so At is
// non-decreasing.
type Change struct {
	At      core.Time `json:"at"`
	Machine int       `json:"machine"`
	Join    bool      `json:"join"`
	Members int       `json:"members"`
}

// Membership is the replayable membership history of one elastic run:
// capacity slots, the initial active prefix, and every transition. The
// auditor replays it to reconstruct the active set at any instant.
type Membership struct {
	Capacity int      `json:"capacity"`
	Initial  int      `json:"initial"`
	Changes  []Change `json:"changes,omitempty"`
}

// fillActive reconstructs the active-slot vector at instant t into buf
// (which must have length Capacity) and returns the membership size.
// strict=false applies changes with At ≤ t; strict=true only At < t — the
// two sides of a change instant.
func (ms *Membership) fillActive(buf []bool, t core.Time, strict bool) int {
	for j := range buf {
		buf[j] = j < ms.Initial
	}
	members := ms.Initial
	for _, ch := range ms.Changes {
		if ch.At > t || (strict && ch.At == t) {
			break
		}
		if ch.Machine >= 0 && ch.Machine < len(buf) && buf[ch.Machine] != ch.Join {
			buf[ch.Machine] = ch.Join
			if ch.Join {
				members++
			} else {
				members--
			}
		}
	}
	return members
}

// MembersAt returns the membership size at instant t (changes at exactly t
// included).
func (ms *Membership) MembersAt(t core.Time) int {
	buf := make([]bool, ms.Capacity)
	return ms.fillActive(buf, t, false)
}

// Final returns the membership size after the last change.
func (ms *Membership) Final() int {
	members := ms.Initial
	if n := len(ms.Changes); n > 0 {
		members = ms.Changes[n-1].Members
	}
	return members
}

// MachineHours integrates the membership size over [0, horizon] — the
// provisioning cost the autoscale experiment trades against Fmax. Changes
// after the horizon are ignored.
func (ms *Membership) MachineHours(horizon core.Time) core.Time {
	var hours core.Time
	members, last := ms.Initial, core.Time(0)
	for _, ch := range ms.Changes {
		if ch.At >= horizon {
			break
		}
		at := ch.At
		if at < last {
			at = last
		}
		hours += core.Time(members) * (at - last)
		members, last = ch.Members, at
	}
	if horizon > last {
		hours += core.Time(members) * (horizon - last)
	}
	return hours
}

// Eligible reports whether machine j was a valid destination for a task with
// the given static processing set dispatched at instant at: j must lie in
// the effective set (see Effective) under the membership in force at that
// instant. Because the engine may apply a same-instant scale event before or
// after a same-instant dispatch (the event queue breaks ties FIFO), both
// sides of the instant are accepted — membership "as of ≤ at" and "as of
// < at".
func (ms *Membership) Eligible(set core.ProcSet, at core.Time, j int) bool {
	return ms.eligibleAt(set, at, j, false) || ms.eligibleAt(set, at, j, true)
}

// eligibleAt is one side of Eligible. The auditor asks it about every task,
// so on up to 64 slots its snapshot and effective set live on the stack.
func (ms *Membership) eligibleAt(set core.ProcSet, at core.Time, j int, strict bool) bool {
	var activeBuf [64]bool
	var effBuf [64]int
	var active []bool
	if ms.Capacity <= len(activeBuf) {
		active = activeBuf[:ms.Capacity]
	} else {
		active = make([]bool, ms.Capacity)
	}
	members := ms.fillActive(active, at, strict)
	k := len(set)
	if set == nil {
		k = members
	}
	eff := Effective(active, RingStart(set, ms.Capacity), k, effBuf[:0])
	return len(eff) > 0 && eff.Contains(j)
}
