package sim

import (
	"math/rand"

	"flowsched/internal/core"
	"flowsched/internal/sched"
)

// PowerOfTwoRouter implements the power-of-two-choices policy over the
// eligible servers: sample two uniformly at random and send the request to
// the one with the shorter queue. A classic randomized load balancer
// (Mitzenmacher) that needs neither clairvoyance nor a full scan; with
// replication factor k the "d choices" are drawn inside the replica set,
// which is exactly how C3-style replica selection operates in key-value
// stores.
type PowerOfTwoRouter struct{ Rng *rand.Rand }

// Name implements Router.
func (PowerOfTwoRouter) Name() string { return "Po2" }

// Pick implements Router.
func (r PowerOfTwoRouter) Pick(st *State, t core.Task) int {
	pickFrom := func(n int, at func(int) int) int {
		a := at(r.Rng.Intn(n))
		b := at(r.Rng.Intn(n))
		if st.QueueLen[b] < st.QueueLen[a] {
			return b
		}
		return a
	}
	if t.Set == nil {
		return pickFrom(st.M, func(i int) int { return i })
	}
	return pickFrom(len(t.Set), func(i int) int { return t.Set[i] })
}

// RoundRobinRouter cycles through servers, skipping ineligible ones — the
// load-oblivious baseline.
type RoundRobinRouter struct{ next int }

// Name implements Router.
func (*RoundRobinRouter) Name() string { return "RR" }

// Reset implements Resettable: it rewinds the cursor so the router can be
// reused across runs (Run and Arena.Run call this automatically).
func (r *RoundRobinRouter) Reset() { r.next = 0 }

// Pick implements Router.
func (r *RoundRobinRouter) Pick(st *State, t core.Task) int {
	for probe := 0; probe < st.M; probe++ {
		j := (r.next + probe) % st.M
		if t.Eligible(j) {
			r.next = j + 1
			return j
		}
	}
	return -1 // unreachable for valid tasks: Validate guarantees a non-empty set
}

// NoisyEFTRouter is EFT with imperfect clairvoyance: at dispatch it knows
// each request's processing time only up to a multiplicative error drawn
// uniformly from [1−RelErr, 1+RelErr], and it tracks machine completion
// times using those estimates. The paper points out that EFT "implies that
// one must know the processing time of arriving tasks with precision"; this
// router quantifies what happens when one does not. It accumulates
// estimated state during a run; Run and Arena.Run reset it automatically.
type NoisyEFTRouter struct {
	Tie    sched.TieBreak
	RelErr float64
	Rng    *rand.Rand

	est []core.Time // estimated completion per machine
}

// Name implements Router.
func (r *NoisyEFTRouter) Name() string { return "EFT-noisy" }

// Reset implements Resettable: it clears the accumulated completion-time
// beliefs so the router can be reused across runs (Run and Arena.Run call this
// automatically).
func (r *NoisyEFTRouter) Reset() { r.est = nil }

// Pick implements Router.
func (r *NoisyEFTRouter) Pick(st *State, t core.Task) int {
	if r.est == nil {
		r.est = make([]core.Time, st.M)
	}
	tie := r.Tie
	if tie == nil {
		tie = sched.MinTie{}
	}
	candidates := eftTieSet(st, t, r.est)
	if len(candidates) == 0 {
		return -1
	}
	j := tie.Pick(candidates)
	// Update the belief with the noisy processing-time estimate.
	noisy := t.Proc * core.Time(1+r.RelErr*(2*r.Rng.Float64()-1))
	if noisy <= 0 {
		noisy = t.Proc * 1e-3
	}
	start := r.est[j]
	if t.Release > start {
		start = t.Release
	}
	r.est[j] = start + noisy
	return j
}
