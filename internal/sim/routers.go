package sim

import (
	"math/rand"

	"flowsched/internal/core"
	"flowsched/internal/sched"
)

// EFTRouter is the clairvoyant Earliest-Finish-Time router: it sends each
// request to the eligible server finishing it earliest, breaking ties with
// the configured policy (nil = Min). It is the simulator-side twin of
// sched.EFT (tests assert the schedules coincide).
//
// Pick is allocation-free: the tie set is built in the State's scratch
// buffer (see State.Candidates) and handed to the tie-break, so routing a
// request costs one scan of the eligible set and no garbage. A task with a
// non-nil empty Set has no eligible server; Pick reports that as -1 and Run
// turns it into a "no eligible server" error.
type EFTRouter struct {
	Tie sched.TieBreak
}

// Name implements Router.
func (r EFTRouter) Name() string {
	if r.Tie == nil {
		return "EFT-Min"
	}
	return "EFT-" + r.Tie.Name()
}

// Pick implements Router.
func (r EFTRouter) Pick(st *State, t core.Task) int {
	tie := r.Tie
	if tie == nil {
		tie = sched.MinTie{}
	}
	candidates := eftTieSet(st, t, st.Completion)
	if len(candidates) == 0 {
		return -1
	}
	return tie.Pick(candidates)
}

// eftTieSet builds the EFT tie set U = { j eligible : comp[j] ≤ t'_min },
// t'_min = max(release, min over the eligible set), into the State's scratch
// buffer. It returns an empty slice when the task has a non-nil empty Set.
// The result is valid until the next call that reuses the scratch buffer.
func eftTieSet(st *State, t core.Task, comp []core.Time) []int {
	var tmin core.Time
	if t.Set == nil {
		if st.M == 0 {
			return nil
		}
		tmin = comp[0]
		for _, c := range comp[1:st.M] {
			if c < tmin {
				tmin = c
			}
		}
	} else {
		if len(t.Set) == 0 {
			return nil
		}
		tmin = comp[t.Set[0]]
		for _, j := range t.Set[1:] {
			if c := comp[j]; c < tmin {
				tmin = c
			}
		}
	}
	if t.Release > tmin {
		tmin = t.Release
	}
	candidates := st.Candidates(len(t.Set))
	if t.Set == nil {
		for j := 0; j < st.M; j++ {
			if comp[j] <= tmin {
				candidates = append(candidates, j)
			}
		}
	} else {
		for _, j := range t.Set {
			if comp[j] <= tmin {
				candidates = append(candidates, j)
			}
		}
	}
	st.keepScratch(candidates)
	return candidates
}

// JSQRouter sends each request to the eligible server with the fewest
// unfinished requests (join shortest queue), ties to the smallest index. It
// is non-clairvoyant: it never reads completion times. Pick is
// allocation-free.
type JSQRouter struct{}

// Name implements Router.
func (JSQRouter) Name() string { return "JSQ" }

// Pick implements Router.
func (JSQRouter) Pick(st *State, t core.Task) int {
	if t.Set == nil {
		if st.M == 0 {
			return -1
		}
		best := 0
		for j := 1; j < st.M; j++ {
			if st.QueueLen[j] < st.QueueLen[best] {
				best = j
			}
		}
		return best
	}
	if len(t.Set) == 0 {
		return -1
	}
	best := t.Set[0]
	for _, j := range t.Set[1:] {
		if st.QueueLen[j] < st.QueueLen[best] {
			best = j
		}
	}
	return best
}

// RandomRouter sends each request to a uniformly random eligible server —
// the weakest sensible baseline (what a stateless load balancer does).
//
// The zero value is ready to use: the generator is lazily seeded from Seed.
// Reset (called automatically by Run and Arena.Run) rewinds the stream to
// Seed, so a reused router replays the same decisions on every run, like
// every other router. An explicitly provided Rng takes precedence over Seed;
// such a router keeps consuming its external stream across runs and is not
// replayable (callers own the generator's state).
type RandomRouter struct {
	Seed int64      // seeds the internal stream (used when Rng is nil)
	Rng  *rand.Rand // optional external generator; overrides Seed

	rng *rand.Rand // active generator
}

// Name implements Router.
func (*RandomRouter) Name() string { return "Random" }

// Reset implements Resettable: it rewinds the internal stream to Seed so a
// reused router replays deterministically. With an external Rng the stream
// cannot be rewound; Reset only re-adopts the caller's generator.
func (r *RandomRouter) Reset() {
	if r.Rng != nil {
		r.rng = r.Rng
		return
	}
	r.rng = rand.New(rand.NewSource(r.Seed))
}

// Pick implements Router.
func (r *RandomRouter) Pick(st *State, t core.Task) int {
	if r.rng == nil {
		r.Reset()
	}
	if t.Set == nil {
		if st.M == 0 {
			return -1
		}
		return r.rng.Intn(st.M)
	}
	if len(t.Set) == 0 {
		return -1
	}
	return t.Set[r.rng.Intn(len(t.Set))]
}
