// Package sim is the key-value store substrate: a discrete-event simulation
// of a cluster of servers with FIFO local queues and an immediate-dispatch
// router, as used in the experiments of Section 7.4. Requests are the tasks
// of a core.Instance; the router assigns each arriving request to an
// eligible server at its release instant (scalable stores cannot hold
// central queues — the Immediate Dispatch property of Section 3), and each
// server serves its local queue in arrival order.
//
// The engine processes arrival and completion events in time order
// (completions before arrivals at equal instants) and collects per-request
// flow times plus per-server utilization.
//
// Run and RunProbed are the paper's fault-free loops. Arena.Run is the
// layered engine: faults, overload control, elastic membership, hedging and
// resilience, each armed by one field of a Config.
package sim

import (
	"fmt"

	"flowsched/internal/core"
	"flowsched/internal/eventq"
	"flowsched/internal/obs"
	"flowsched/internal/sched"
	"flowsched/internal/stats"
)

// State is the router-visible cluster state at an arrival instant.
type State struct {
	Now        core.Time
	M          int
	Completion []core.Time // per-server time at which its queue drains
	QueueLen   []int       // per-server number of unfinished requests

	scratch []int // reusable candidate buffer, see Candidates
}

// Candidates returns an empty reusable buffer with capacity for at least
// max(M, setLen) server indices. Routers build per-request candidate sets in
// it instead of allocating; the returned slice (and anything appended to it
// within capacity) is only valid until the next Pick on the same State —
// the scratch-buffer contract documented in DESIGN.md §7. Callers that grow
// the buffer should hand it back via keepScratch so the growth is kept.
func (st *State) Candidates(setLen int) []int {
	need := st.M
	if setLen > need {
		need = setLen
	}
	if cap(st.scratch) < need {
		st.scratch = make([]int, 0, need)
	}
	return st.scratch[:0]
}

// keepScratch retains a (possibly re-grown) candidate buffer for reuse.
func (st *State) keepScratch(buf []int) { st.scratch = buf[:0] }

// Router decides, immediately at arrival, which eligible server runs a
// request.
type Router interface {
	Name() string
	Pick(st *State, t core.Task) int
}

// Resettable is implemented by stateful routers (round-robin cursor, noisy
// EFT beliefs). Run and Arena.Run reset such routers at the start of every
// run, so one router value can be reused across runs safely.
type Resettable interface {
	Reset()
}

// Metrics aggregates a simulation run. The engines record each request's
// flow and nothing that follows from it: a stretch F_i / p_i is derived
// from Flows and the run's tasks when MaxStretch or MeanStretch asks, so
// those two read the instance the run was given, which must not have
// changed since.
type Metrics struct {
	Flows    []core.Time // per-request flow time, indexed by task ID
	Busy     []core.Time // per-server total busy time
	Makespan core.Time

	tasks []core.Task // the run's tasks, set by the engine that built m
}

// MaxFlow returns the maximum response time of the run.
func (m *Metrics) MaxFlow() core.Time { return stats.Max(m.Flows) }

// MeanFlow returns the mean response time of the run.
func (m *Metrics) MeanFlow() core.Time { return stats.Mean(m.Flows) }

// FlowQuantile returns the q-quantile of response times.
func (m *Metrics) FlowQuantile(q float64) core.Time { return stats.Quantile(m.Flows, q) }

// MaxStretch returns max_i F_i / p_i.
func (m *Metrics) MaxStretch() core.Time { return stats.Max(m.stretches()) }

// MeanStretch returns the mean stretch.
func (m *Metrics) MeanStretch() core.Time { return stats.Mean(m.stretches()) }

// stretches returns F_i / p_i in task order, or nothing for a Metrics that
// no engine built. Both engines reject p ≤ 0 before they record a task, and
// a task they never ran (rejected, or parked forever) has flow and stretch 0.
func (m *Metrics) stretches() []core.Time {
	s := make([]core.Time, len(m.tasks))
	for i := range m.tasks {
		s[i] = m.Flows[i] / m.tasks[i].Proc
	}
	return s
}

// SteadyStateMaxFlow returns the maximum flow among requests after the
// warm-up prefix (skip ∈ [0,1) as a fraction of the run; a negative or NaN
// skip means the whole run, and skip ≥ 1 returns 0). The paper's protocol
// relies on 10 000 tasks being "sufficient to reach a steady state"; this
// lets callers check that claim (see TestSteadyState).
func (m *Metrics) SteadyStateMaxFlow(skip float64) core.Time {
	if !(skip >= 0) {
		skip = 0
	}
	if skip >= 1 {
		return 0
	}
	from := int(skip * float64(len(m.Flows)))
	return stats.Max(m.Flows[from:])
}

// Utilization returns the average fraction of time servers were busy, over
// the horizon [0, Makespan].
func (m *Metrics) Utilization() float64 {
	if m.Makespan <= 0 || len(m.Busy) == 0 {
		return 0
	}
	total := 0.0
	for _, b := range m.Busy {
		total += b
	}
	return total / (m.Makespan * core.Time(len(m.Busy)))
}

// Run simulates the instance under the router and returns the resulting
// schedule (validated against the model invariants by tests) and metrics.
//
// Every EFTRouter, whatever its tie-break and whatever the tasks' sets, is
// dispatched by the EFT loop, which keeps completion times in a readyTree
// and no completion events: full-set tasks pick in O(log m), restricted
// ones by a branch-free minimum over their members. Its schedules are
// byte-identical to the generic loop's (TestEFTLoopEquivalence,
// FuzzRouterEquivalence).
//
// Run makes one pass over the tasks. It checks each task with
// core.Task.ValidAt and core.ProcSet.ValidOn in the iteration that
// dispatches it, before the router reads it, and on the first invalid task
// returns "sim: " and the error of inst.Validate, with no schedule. An
// instance is thus checked in full on every call, as Validate checks it.
func Run(inst *core.Instance, router Router) (*core.Schedule, *Metrics, error) {
	return RunProbed(inst, router, nil)
}

// RunProbed is Run with an observability probe attached (obs.Multi of the
// sinks): the probe receives OnArrival/OnDispatch/OnComplete for every
// request plus a final OnDone
// (see obs.Probe for the event-time contract — completions are reported
// eagerly at dispatch, where they become final in the fault-free model).
// A nil probe is exactly Run: every hook sits behind a nil guard, so the
// unobserved hot path stays allocation-free (TestProbeNilRunAllocs;
// benchreg's SimRunEFT is the nil-probe run).
//
// A task's three events are sent together when it is dispatched. So when
// task i is invalid, or the router picks a server task i may not run on,
// the probe has seen the events of tasks 0..i−1, nothing of task i and no
// OnDone.
func RunProbed(inst *core.Instance, router Router, probe obs.Probe) (*core.Schedule, *Metrics, error) {
	if inst.M < 1 {
		return nil, nil, invalid(inst)
	}
	if r, ok := router.(Resettable); ok {
		r.Reset()
	}
	n := inst.N()
	o := &output{
		// Every entry is written by the loop, and an error returns no
		// schedule, so the slices need none of NewSchedule's fill.
		sched: &core.Schedule{Inst: inst, Machine: make([]int, n), Start: make([]core.Time, n)},
		metrics: &Metrics{
			Flows: make([]core.Time, n),
			Busy:  make([]core.Time, inst.M),
			tasks: inst.Tasks,
		},
		probe: probe,
	}
	var err error
	if r, ok := eftLoop(router); ok {
		err = o.runEFT(inst, r)
	} else {
		err = o.runGeneric(inst, router)
	}
	if err != nil {
		return nil, nil, err
	}
	if probe != nil {
		probe.OnDone(o.metrics.Makespan)
	}
	return o.sched, o.metrics, nil
}

// eftLoop is the EFT loop's gate, decided once per run: every EFTRouter,
// whatever its tie-break, and nothing else.
func eftLoop(router Router) (EFTRouter, bool) {
	r, ok := router.(EFTRouter)
	return r, ok
}

// invalid is the error of a run whose dispatch loop met an invalid task:
// Validate's, which names that task and the check it breaks.
func invalid(inst *core.Instance) error {
	return fmt.Errorf("sim: %w", inst.Validate())
}

// runEFT dispatches an EFTRouter run. EFT reads nothing but completion
// times, so the loop keeps them in a readyTree and keeps no completion
// events. Min and Max (nil is Min) take the first and the last machine of
// the tie set directly, and the pick returns the task's start with it; any
// other tie-break is handed the candidates eftTieSet builds, as
// EFTRouter.Pick does, and the loop computes the start. memberPick checks
// a restricted set as it scans it; the other paths check it first.
func (o *output) runEFT(inst *core.Instance, router EFTRouter) error {
	m, tie := inst.M, router.Tie
	tree := newReadyTree(m)
	comp := tree.leaves()
	_, isMax := tie.(sched.MaxTie)
	var st *State // candidate buffer of the other tie-breaks
	if _, isMin := tie.(sched.MinTie); tie != nil && !isMin && !isMax {
		st = &State{M: m, Completion: comp}
	}
	prev := core.Time(0)
	for i := range inst.Tasks {
		task := &inst.Tasks[i]
		if !task.ValidAt(i, prev) {
			return invalid(inst)
		}
		prev = task.Release
		var j int
		var start core.Time
		switch {
		case st != nil:
			if !task.Set.ValidOn(m) {
				return invalid(inst)
			}
			j = tie.Pick(eftTieSet(st, *task, comp))
			if j < 0 || j >= m || !task.Eligible(j) {
				return pickError(router, i, j, task)
			}
			start = max(comp[j], task.Release)
		case task.Set == nil:
			j, start = tree.pickStart(task.Release, isMax)
		default:
			if j, start = memberPick(task.Set, task.Release, comp, isMax); j < 0 {
				return invalid(inst)
			}
		}
		tree.set(j, o.dispatch(i, j, task, start))
	}
	o.finish(comp)
	return nil
}

// runGeneric dispatches every other router. Completion events keep
// State.QueueLen exact for routers that read it (JSQ, power-of-two): they
// are drained up to each arrival instant before the router runs, so
// same-instant completions are visible to the router
// (completion-before-arrival ordering).
func (o *output) runGeneric(inst *core.Instance, router Router) error {
	m := inst.M
	st := &State{M: m, Completion: make([]core.Time, m), QueueLen: make([]int, m)}
	var completions eventq.Queue[int] // payload: server index
	completions.Reserve(reserveFor(inst.N()))
	prev := core.Time(0)
	for i := range inst.Tasks {
		task := &inst.Tasks[i]
		if !task.ValidAt(i, prev) || !task.Set.ValidOn(m) {
			return invalid(inst)
		}
		prev = task.Release
		st.Now = task.Release
		for completions.Len() > 0 {
			if when, _ := completions.Peek(); when > st.Now {
				break
			}
			_, server := completions.Pop()
			st.QueueLen[server]--
		}
		j := router.Pick(st, *task)
		if j < 0 || j >= m || !task.Eligible(j) {
			return pickError(router, i, j, task)
		}
		end := o.dispatch(i, j, task, max(st.Completion[j], task.Release))
		st.Completion[j] = end
		st.QueueLen[j]++
		completions.Push(end, j)
	}
	o.finish(st.Completion)
	return nil
}

// output is what both dispatch loops record into: the run's schedule and
// metrics, and the probe that watches it.
type output struct {
	sched   *core.Schedule
	metrics *Metrics
	probe   obs.Probe
}

// dispatch records task i on server j from start, max(C_j, r_i) by Eq.
// (2), and returns the task's completion time. The probe sees the task's
// arrival, its dispatch and, eagerly, its completion. The makespan waits
// for finish.
func (o *output) dispatch(i, j int, task *core.Task, start core.Time) core.Time {
	end := start + task.Proc
	o.sched.Assign(i, j, start)
	o.metrics.Flows[i] = end - task.Release
	o.metrics.Busy[j] += task.Proc
	if o.probe != nil {
		o.probe.OnArrival(i, task.Release)
		o.probe.OnDispatch(i, j, task.Release, start, end)
		o.probe.OnComplete(i, j, task.Release, task.Proc, end)
	}
	return end
}

// finish sets the run's makespan once, after the last dispatch, to the
// latest of comp, the machines' final completion times. A machine's
// completions never decrease (end = max(C_j, r) + p ≥ C_j, also when p is
// below half an ulp of the start or the sum overflows to +Inf), so that is
// the run's latest completion, and 0 for a run with no task.
func (o *output) finish(comp []core.Time) { o.metrics.Makespan = stats.Max(comp) }

// pickError reports that the router picked server j, which task i may not
// run on. (The loop has already rejected tasks with no server at all.)
func pickError(router Router, i, j int, task *core.Task) error {
	return fmt.Errorf("sim: router %s picked invalid server M%d for task %d (set %v)",
		router.Name(), j+1, i, task.Set)
}

// reserveFor sizes the completion queue's initial capacity: enough that
// small and mid-sized runs never reallocate, without reserving O(n) memory
// for multi-million-request instances (the heap then grows amortized).
func reserveFor(n int) int {
	const max = 4096
	if n < max {
		return n
	}
	return max
}
