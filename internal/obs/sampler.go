package obs

import (
	"fmt"

	"flowsched/internal/core"
	"flowsched/internal/eventq"
)

// Sample is one instant of the time series: the cluster state after every
// event at Time ≤ the sample instant has been applied.
type Sample struct {
	Time    core.Time
	Queue   []int     // per-server unfinished requests (queued + running), see Sampler
	Backlog int       // total released-but-unfinished requests (Σ queues + parked/failing-over)
	MaxAge  core.Time // age of the oldest in-flight request — the max-flow watermark
	Busy    int       // servers with a non-empty queue
	Members int       // active cluster membership (= m unless elastic events arrive)
}

// Utilization returns the instantaneous fraction of busy servers.
func (s Sample) Utilization() float64 {
	if len(s.Queue) == 0 {
		return 0
	}
	return float64(s.Busy) / float64(len(s.Queue))
}

// Sampler is a Sink recording the cluster state at a fixed interval dt:
// per-server queue lengths, the total backlog, the in-flight max-flow
// watermark (age of the oldest unfinished request — the live counterpart of
// Fmax) and utilization. Over the stable adversarial prefixes of the
// paper's Section 6, the recorded queue profile is exactly the stable
// profile w_τ(j) = min(m − j, m − k) driven by Theorems 8–10; under fault
// plans it shows the PR 1 failover spikes as they happen.
//
// Samples are taken at t = 0, dt, 2dt, …, makespan; a sample at instant b
// reflects every event with time ≤ b. The fault-free simulator reports
// completions eagerly at dispatch (see Probe), so the sampler reorders them
// through an internal pending-completion heap.
//
// A server's queue counts each unfinished task once, on the server of its
// latest dispatch, until the task completes, is dropped, shed or rejected,
// or is handed off, or until that server fails over and loses its queue.
// Hedge copies are not counted: a task completed by its copy leaves its
// primary's server. So Σ queues ≤ Backlog in every sample.
//
// Both engines report each task's arrival once, in task-id order, so the
// per-task state is indexed by task id; an arrival whose id is not the next
// one is ignored, as is every event of a task whose arrival was not applied.
type Sampler struct {
	dt      core.Time
	m       int
	samples []Sample

	next    core.Time // next sample boundary to emit
	queue   []int     // per-server unfinished requests
	backlog int       // released-but-unfinished requests
	members int       // active membership; updated by elastic join/drain events

	pending eventq.Queue[int] // tasks of future completions, keyed by end time

	releases  []core.Time // per task id; non-decreasing
	finished  []bool      // per task id
	on        []int       // per task id: the server counting the task, or −1
	gen       []int       // per task id: that server's failovers when it counted the task
	failovers []int       // per server: failovers so far
	oldest    int         // id of the oldest in-flight candidate
	doneEmits bool
}

// NewSampler returns a sampler for m servers at interval dt. dt ≤ 0 and
// m ≤ 0 are rejected: a non-positive interval would make the sample
// boundary sequence ill-defined.
func NewSampler(m int, dt core.Time) (*Sampler, error) {
	if m <= 0 {
		return nil, fmt.Errorf("obs: sampler needs at least one server, got m=%d", m)
	}
	if !(dt > 0) {
		return nil, fmt.Errorf("obs: sampling interval must be positive, got dt=%v", dt)
	}
	return &Sampler{
		dt:        dt,
		m:         m,
		members:   m,
		queue:     make([]int, m),
		failovers: make([]int, m),
	}, nil
}

// SetMembers primes the membership gauge for an elastic run that starts with
// fewer than m active machines (the simulator only reports *changes*, as
// join and scale-down events). Call it before the run; the default is m.
func (s *Sampler) SetMembers(n int) { s.members = n }

// Interval returns the sampling interval dt.
func (s *Sampler) Interval() core.Time { return s.dt }

// Samples returns the recorded time series (valid after the done event).
func (s *Sampler) Samples() []Sample { return s.samples }

// PeakBacklog returns the largest sampled backlog and the sample instant it
// was recorded at.
func (s *Sampler) PeakBacklog() (int, core.Time) {
	peak, at := 0, core.Time(0)
	for _, sm := range s.samples {
		if sm.Backlog > peak {
			peak, at = sm.Backlog, sm.Time
		}
	}
	return peak, at
}

// PeakMaxAge returns the largest sampled in-flight watermark and its sample
// instant — a lower bound on the run's Fmax observable mid-run.
func (s *Sampler) PeakMaxAge() (core.Time, core.Time) {
	peak, at := core.Time(0), core.Time(0)
	for _, sm := range s.samples {
		if sm.MaxAge > peak {
			peak, at = sm.MaxAge, sm.Time
		}
	}
	return peak, at
}

// record captures the current state as the sample at instant at.
func (s *Sampler) record(at core.Time) {
	q := make([]int, s.m)
	copy(q, s.queue)
	busy := 0
	for _, n := range q {
		if n > 0 {
			busy++
		}
	}
	age := core.Time(0)
	if task := s.oldestInFlight(); task >= 0 {
		age = at - s.releases[task]
	}
	s.samples = append(s.samples, Sample{Time: at, Queue: q, Backlog: s.backlog, MaxAge: age, Busy: busy, Members: s.members})
}

// oldestInFlight advances past finished tasks and returns the id of the
// oldest unfinished request, or -1.
func (s *Sampler) oldestInFlight() int {
	for s.oldest < len(s.finished) && s.finished[s.oldest] {
		s.oldest++
	}
	if s.oldest >= len(s.finished) {
		return -1
	}
	return s.oldest
}

// advance applies pending completions up to instant to, emitting sample
// boundaries strictly before each applied event and before to, so a sample
// at boundary b sees every event with time ≤ b.
func (s *Sampler) advance(to core.Time) {
	for s.pending.Len() > 0 {
		when, _ := s.pending.Peek()
		if when > to {
			break
		}
		_, task := s.pending.Pop()
		s.emitBefore(when)
		s.finish(task)
	}
	s.emitBefore(to)
}

// emitBefore records every unemitted boundary strictly before instant t.
func (s *Sampler) emitBefore(t core.Time) {
	for s.next < t {
		s.record(s.next)
		s.next += s.dt
	}
}

// known reports whether task's arrival has been applied.
func (s *Sampler) known(task int) bool { return task >= 0 && task < len(s.releases) }

// count puts task on server's queue. The task is counted nowhere: it has
// just arrived, or the handoff or failover that took it off its last queue
// came first.
func (s *Sampler) count(task, server int) {
	if !s.known(task) || server < 0 || server >= s.m {
		return
	}
	s.on[task], s.gen[task] = server, s.failovers[server]
	s.queue[server]++
}

// uncount takes task off its server's queue, unless a failover of that
// server has already emptied the queue.
func (s *Sampler) uncount(task int) {
	if j := s.on[task]; j >= 0 {
		if s.gen[task] == s.failovers[j] {
			s.queue[j]--
		}
		s.on[task] = -1
	}
}

// finish retires a completed, dropped, shed or rejected task.
func (s *Sampler) finish(task int) {
	if s.known(task) && !s.finished[task] {
		s.uncount(task)
		s.finished[task] = true
		s.backlog--
	}
}

// Observe implements Sink. It applies the base stream, the tasks overload
// control rejects or sheds, the handoffs and the membership changes; the
// other overload events and the hedge and resilience events do not move it.
func (s *Sampler) Observe(e Event) {
	switch e.Kind {
	case Arrival:
		s.advance(e.At)
		if e.Task != len(s.releases) {
			return // not the next task id
		}
		s.releases = append(s.releases, e.At)
		s.finished = append(s.finished, false)
		s.on = append(s.on, -1)
		s.gen = append(s.gen, 0)
		s.backlog++
	case Dispatch:
		s.advance(e.At)
		s.count(e.Task, e.Server)
	case Complete:
		// The fault-free simulator reports completions at dispatch with a
		// future end; buffer and apply in time order. A copy's completion
		// names the copy's server, but the task is counted on its primary's.
		s.pending.Push(e.At, e.Task)
	case Drop, Reject, Shed:
		// A dropped, rejected or shed task leaves the system unfinished.
		s.advance(e.At)
		s.finish(e.Task)
	case Handoff:
		// A drained slot's task leaves its queue; the re-dispatch that
		// follows counts it on its new server.
		s.advance(e.At)
		if s.known(e.Task) {
			s.uncount(e.Task)
		}
	case Retry, ScaleUp:
		// A scale-up changes the membership only at its join.
		s.advance(e.At)
	case Failover:
		// A crashing server loses its whole queue: the tasks it counted are
		// counted nowhere until they are dispatched again.
		s.advance(e.At)
		if e.Server >= 0 && e.Server < s.m {
			s.queue[e.Server] = 0
			s.failovers[e.Server]++
		}
	case Join, ScaleDown:
		s.advance(e.At)
		s.members = e.Aux
	case Done:
		s.done(e.At)
	}
}

// done flushes pending completions and emits every remaining boundary up
// to and including the makespan.
func (s *Sampler) done(makespan core.Time) {
	if s.doneEmits {
		return
	}
	s.doneEmits = true
	s.advance(makespan)
	for s.next <= makespan {
		s.record(s.next)
		s.next += s.dt
	}
}
