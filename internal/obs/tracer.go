package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"flowsched/internal/core"
)

// AttemptOutcome classifies how one dispatch attempt of a task ended.
type AttemptOutcome uint8

const (
	// AttemptPending is an attempt still occupying its server (or the final
	// state of a run that ended mid-attempt, which the engine never does).
	AttemptPending AttemptOutcome = iota
	// AttemptCompleted is an attempt that ran to completion.
	AttemptCompleted
	// AttemptCrashed is an attempt aborted by its server's crash; the task
	// re-entered through a retry or was dropped.
	AttemptCrashed
	// AttemptHandedOff is an attempt aborted by a scale-down drain; the task
	// was handed off to a surviving member.
	AttemptHandedOff
	// AttemptShed is an attempt abandoned by the watermark shedder while the
	// task sat in its server's queue.
	AttemptShed
	// AttemptHedgeCancelled is a losing hedge attempt (a speculative copy, or
	// a primary beaten by its copy) abandoned by first-win cancellation, a
	// tied-mode revocation, or the copy's death.
	AttemptHedgeCancelled
)

// String returns the attempt outcome's wire name.
func (o AttemptOutcome) String() string {
	switch o {
	case AttemptCompleted:
		return "completed"
	case AttemptCrashed:
		return "crashed"
	case AttemptHandedOff:
		return "handed-off"
	case AttemptShed:
		return "shed"
	case AttemptHedgeCancelled:
		return "hedge-cancelled"
	default:
		return "pending"
	}
}

// MarshalJSON implements json.Marshaler: outcomes encode as their names.
func (o AttemptOutcome) MarshalJSON() ([]byte, error) {
	return json.Marshal(o.String())
}

// TraceState is the terminal disposition of a task's span tree.
type TraceState uint8

const (
	// TraceUnfinished is a task with no terminal event yet: still queued,
	// in flight, or parked without an eligible live machine when the run
	// ended.
	TraceUnfinished TraceState = iota
	// TraceCompleted is a task that completed.
	TraceCompleted
	// TraceDropped is a task the retry policy gave up on after a crash.
	TraceDropped
	// TraceRejected is a task turned away by admission control on arrival.
	TraceRejected
	// TraceShed is a task abandoned mid-run by the watermark shedder or by
	// deadline enforcement at dispatch.
	TraceShed
)

// String returns the state's wire name.
func (s TraceState) String() string {
	switch s {
	case TraceCompleted:
		return "completed"
	case TraceDropped:
		return "dropped"
	case TraceRejected:
		return "rejected"
	case TraceShed:
		return "shed"
	default:
		return "unfinished"
	}
}

// MarshalJSON implements json.Marshaler: states encode as their names.
func (s TraceState) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// AttemptSpan is one dispatch attempt of a task: the server it was assigned
// to at instant At, the service interval [Start, End) the engine forecast
// (or, for the completing attempt, the final one), and how it ended.
type AttemptSpan struct {
	Server  int            `json:"server"`
	At      core.Time      `json:"-"` // dispatch instant
	Start   core.Time      `json:"-"` // service start
	End     core.Time      `json:"-"` // service end (exact for the completing attempt)
	Outcome AttemptOutcome `json:"outcome"`
	AbortAt core.Time      `json:"-"` // crash/handoff/shed instant; NaN otherwise

	// Retimed marks a completing attempt whose service interval was silently
	// re-timed after a watermark shed ahead of it in the queue. End is still
	// exact (it comes from the completion event); Start is reconstructed as
	// End − proc, which is exact on healthy servers and an upper bound under
	// a gray slowdown.
	Retimed bool `json:"retimed,omitempty"`

	// Hedge marks a speculative copy dispatched under sim.Config.Hedge: a sibling
	// span racing the primary attempt, resolved by first-win cancellation.
	Hedge bool `json:"hedge,omitempty"`
}

// attemptSpanJSON is the NaN-safe wire form of an AttemptSpan.
type attemptSpanJSON struct {
	Server  int            `json:"server"`
	At      core.NullTime  `json:"at"`
	Start   core.NullTime  `json:"start"`
	End     core.NullTime  `json:"end"`
	Outcome AttemptOutcome `json:"outcome"`
	AbortAt core.NullTime  `json:"abort_at"`
	Retimed bool           `json:"retimed,omitempty"`
	Hedge   bool           `json:"hedge,omitempty"`
}

// MarshalJSON implements json.Marshaler with the engine's NaN sentinels
// encoded as null (core.NullTime).
func (a AttemptSpan) MarshalJSON() ([]byte, error) {
	return json.Marshal(attemptSpanJSON{
		Server: a.Server, At: core.NullTime(a.At), Start: core.NullTime(a.Start),
		End: core.NullTime(a.End), Outcome: a.Outcome,
		AbortAt: core.NullTime(a.AbortAt), Retimed: a.Retimed, Hedge: a.Hedge,
	})
}

// TaskTrace is the causal span tree of one task: the queued root span
// opened at Release, the dispatch attempts in causal order, and the
// terminal disposition.
type TaskTrace struct {
	Task    int        `json:"task"`
	Release core.Time  `json:"-"`
	State   TraceState `json:"state"`
	// EndAt is the terminal instant: the completion end, the drop / shed
	// instant, or the (arrival-time) rejection instant. NaN while
	// unfinished.
	EndAt core.Time `json:"-"`
	// Flow is EndAt − Release: the flow time for completed tasks, the age
	// at disposition for dropped/rejected/shed ones (matching the engine's
	// Metrics.Flows convention). NaN while unfinished.
	Flow core.Time `json:"-"`
	// Reason is the overload disposition reason (reject/shed); empty
	// otherwise.
	Reason string `json:"reason,omitempty"`
	// Retries counts crash-aborted attempts that were rescheduled.
	Retries  int           `json:"retries,omitempty"`
	Attempts []AttemptSpan `json:"attempts,omitempty"`
}

// taskTraceJSON is the NaN-safe wire form of a TaskTrace.
type taskTraceJSON struct {
	Task     int           `json:"task"`
	Release  core.NullTime `json:"release"`
	State    TraceState    `json:"state"`
	EndAt    core.NullTime `json:"end_at"`
	Flow     core.NullTime `json:"flow"`
	Reason   string        `json:"reason,omitempty"`
	Retries  int           `json:"retries,omitempty"`
	Attempts []AttemptSpan `json:"attempts,omitempty"`
}

// MarshalJSON implements json.Marshaler with NaN-safe times.
func (t *TaskTrace) MarshalJSON() ([]byte, error) {
	return json.Marshal(taskTraceJSON{
		Task: t.Task, Release: core.NullTime(t.Release), State: t.State,
		EndAt: core.NullTime(t.EndAt), Flow: core.NullTime(t.Flow),
		Reason: t.Reason, Retries: t.Retries, Attempts: t.Attempts,
	})
}

// QueueWait returns the time the task spent waiting before its first
// (possibly later aborted) service start; NaN if it was never dispatched.
func (t *TaskTrace) QueueWait() core.Time {
	if len(t.Attempts) == 0 {
		return core.Time(math.NaN())
	}
	return t.Attempts[0].Start - t.Release
}

// rank orders traces for KeepWorst retention: terminal traces by their flow
// (age at disposition), unfinished ones as +Inf so a task the run never
// resolved is always worth keeping.
func (t *TaskTrace) rank() float64 {
	if t.State == TraceUnfinished {
		return math.Inf(1)
	}
	return float64(t.Flow)
}

// open returns the task's pending primary attempt — hedge sibling spans are
// skipped: crash/shed/handoff events always target the primary, while hedge
// spans resolve only through OnComplete or OnHedgeCancel.
func (t *TaskTrace) open() *AttemptSpan {
	for i := len(t.Attempts) - 1; i >= 0; i-- {
		a := &t.Attempts[i]
		if a.Hedge {
			continue
		}
		if a.Outcome == AttemptPending {
			return a
		}
		return nil // the newest primary attempt is already closed
	}
	return nil
}

// openOn returns the task's most recent pending attempt on the given server
// (hedge spans included), nil if none — the server disambiguates the racing
// attempts of a hedged task.
func (t *TaskTrace) openOn(server int) *AttemptSpan {
	for i := len(t.Attempts) - 1; i >= 0; i-- {
		if a := &t.Attempts[i]; a.Outcome == AttemptPending && a.Server == server {
			return a
		}
	}
	return nil
}

// abort closes the pending primary attempt (if any) with the given outcome
// at the given instant.
func (t *TaskTrace) abort(o AttemptOutcome, at core.Time) {
	if a := t.open(); a != nil {
		a.Outcome = o
		a.AbortAt = at
	}
}

// Retention bounds a Tracer's memory. The zero value keeps every trace.
type Retention struct {
	k int // 0 = keep all
}

// KeepAll retains every task's trace — fine for analysis runs, unbounded
// for production-sized ones.
func KeepAll() Retention { return Retention{} }

// KeepWorst retains exactly the k traces with the largest flow times (ties
// broken toward smaller task ids; tasks the run never resolved rank above
// every finite flow). Benign tasks are discarded the moment they resolve,
// and a discarded trace is recycled for a later arrival, so tracing a
// million-task run keeps O(k + live) memory and makes O(k + live)
// allocations, live being the peak number of unresolved tasks.
func KeepWorst(k int) Retention {
	if k < 1 {
		k = 1
	}
	return Retention{k: k}
}

// Tracer is a Probe (plus OverloadObserver and MembershipObserver) that
// assembles per-task causal span trees from the engine's event stream with
// zero engine changes: queued → attempt[k] (server, [start,end),
// aborted-by-crash / handed-off / shed) → complete | drop | reject.
//
// The engine re-times attempts queued behind a watermark shed without a
// probe event; the tracer reconciles at completion time — the completion
// instant is always exact, and a mismatch with the forecast interval marks
// the attempt Retimed (see AttemptSpan.Retimed).
//
// A Tracer is not safe for concurrent use; attach one per run.
type Tracer struct {
	retain Retention

	live     map[int]*TaskTrace // tasks with no terminal event yet
	all      []*TaskTrace       // KeepAll: every trace in arrival order
	heap     []*TaskTrace       // KeepWorst: min-heap by (rank, task)
	retained map[int]*TaskTrace // KeepWorst: heap membership by task
	free     []*TaskTrace       // KeepWorst: discarded traces OnArrival reuses

	makespan core.Time
	done     bool
}

// NewTracer returns a tracer with the given retention policy (KeepAll() or
// KeepWorst(k)).
func NewTracer(r Retention) *Tracer {
	t := &Tracer{retain: r, live: make(map[int]*TaskTrace)}
	if r.k > 0 {
		t.heap = make([]*TaskTrace, 0, r.k)
		t.retained = make(map[int]*TaskTrace, r.k)
	}
	return t
}

// Done reports whether the traced run has finished (OnDone fired).
func (t *Tracer) Done() bool { return t.done }

// Makespan returns the traced run's makespan (0 before OnDone).
func (t *Tracer) Makespan() core.Time { return t.makespan }

// Trace returns the task's trace, nil if it was never seen or was discarded
// by KeepWorst retention. Under KeepWorst a discarded trace is reused for a
// later arrival, so mid-run the returned pointer describes task only until
// the tracer's next OnArrival; after OnDone it stays valid.
func (t *Tracer) Trace(task int) *TaskTrace {
	if tr, ok := t.live[task]; ok {
		return tr
	}
	if t.retained != nil {
		return t.retained[task]
	}
	return nil
}

// Traces returns every retained trace sorted by task id. Mid-run under
// KeepWorst the pointers are valid until the next OnArrival (see Trace).
func (t *Tracer) Traces() []*TaskTrace {
	var out []*TaskTrace
	if t.retain.k > 0 {
		out = append(out, t.heap...)
		for _, tr := range t.live {
			out = append(out, tr)
		}
	} else {
		out = append(out, t.all...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Task < out[j].Task })
	return out
}

// Worst returns the k retained traces with the largest flow times, worst
// first (ties toward smaller task ids; unfinished tasks rank above every
// finite flow).
func (t *Tracer) Worst(k int) []*TaskTrace {
	out := t.Traces()
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].rank(), out[j].rank()
		if ri != rj {
			return ri > rj
		}
		return out[i].Task < out[j].Task
	})
	if k >= 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// worse reports whether a outranks b in the (rank, task) total order.
func worse(a, b *TaskTrace) bool {
	ra, rb := a.rank(), b.rank()
	if ra != rb {
		return ra > rb
	}
	return a.Task < b.Task
}

func (t *Tracer) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !worse(t.heap[p], t.heap[i]) {
			break
		}
		t.heap[p], t.heap[i] = t.heap[i], t.heap[p]
		i = p
	}
}

func (t *Tracer) siftDown(i int) {
	for {
		least, l, r := i, 2*i+1, 2*i+2
		if l < len(t.heap) && worse(t.heap[least], t.heap[l]) {
			least = l
		}
		if r < len(t.heap) && worse(t.heap[least], t.heap[r]) {
			least = r
		}
		if least == i {
			return
		}
		t.heap[i], t.heap[least] = t.heap[least], t.heap[i]
		i = least
	}
}

// terminal moves a resolved trace into the retention structure. Under
// KeepWorst the trace the heap turns away (the new one, or the best one it
// evicts) goes on the free list.
func (t *Tracer) terminal(tr *TaskTrace) {
	if t.retain.k == 0 {
		return // KeepAll: the trace already lives in t.all
	}
	delete(t.live, tr.Task)
	if len(t.heap) < t.retain.k {
		t.heap = append(t.heap, tr)
		t.retained[tr.Task] = tr
		t.siftUp(len(t.heap) - 1)
		return
	}
	if !worse(tr, t.heap[0]) {
		t.free = append(t.free, tr) // benign: not among the k worst seen so far
		return
	}
	evicted := t.heap[0]
	delete(t.retained, evicted.Task)
	t.free = append(t.free, evicted)
	t.heap[0] = tr
	t.retained[tr.Task] = tr
	t.siftDown(0)
}

// OnArrival implements Probe: it opens the task's queued root span, in a
// recycled trace when KeepWorst has discarded one (keeping its Attempts
// capacity).
func (t *Tracer) OnArrival(task int, release core.Time) {
	var tr *TaskTrace
	if n := len(t.free); n > 0 {
		tr = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		tr = new(TaskTrace)
	}
	*tr = TaskTrace{
		Task: task, Release: release,
		EndAt: core.Time(math.NaN()), Flow: core.Time(math.NaN()),
		Attempts: tr.Attempts[:0],
	}
	t.live[task] = tr
	if t.retain.k == 0 {
		t.all = append(t.all, tr)
	}
}

// OnDispatch implements Probe: it opens attempt k with the engine's
// forecast service interval.
func (t *Tracer) OnDispatch(task, server int, at, start, end core.Time) {
	tr := t.live[task]
	if tr == nil {
		return // tracer attached mid-run; ignore tasks we never saw arrive
	}
	tr.Attempts = append(tr.Attempts, AttemptSpan{
		Server: server, At: at, Start: start, End: end,
		AbortAt: core.Time(math.NaN()),
	})
}

// OnComplete implements Probe: it closes the pending attempt, reconciling
// a silent watermark re-time — the completion end is exact, so a forecast
// mismatch flags Retimed and reconstructs the start as end − proc.
func (t *Tracer) OnComplete(task, server int, release, proc, end core.Time) {
	tr := t.live[task]
	if tr == nil {
		return
	}
	a := tr.openOn(server) // the winning attempt of a hedged task, by server
	if a == nil {
		a = tr.open()
	}
	if a == nil {
		// Defensive: a completion with no pending attempt (cannot happen with
		// the engine's hook contract). Record a synthetic attempt.
		tr.Attempts = append(tr.Attempts, AttemptSpan{
			Server: server, At: core.Time(math.NaN()), Start: end - proc, End: end,
			AbortAt: core.Time(math.NaN()), Retimed: true,
		})
		a = &tr.Attempts[len(tr.Attempts)-1]
	} else if a.End != end {
		// faults.FinishTime is strictly increasing in the start instant, so
		// same end ⟺ same start: a changed end is a complete re-time detector.
		a.Retimed = true
		a.End = end
		a.Start = end - proc
	}
	a.Outcome = AttemptCompleted
	tr.State = TraceCompleted
	tr.EndAt = end
	tr.Flow = end - release
	t.terminal(tr)
}

// OnDrop implements Probe: the pending attempt (aborted by the crash that
// triggered the retry decision) closes as crashed and the task resolves
// dropped.
func (t *Tracer) OnDrop(task int, release, at core.Time) {
	tr := t.live[task]
	if tr == nil {
		return
	}
	tr.abort(AttemptCrashed, at)
	tr.State = TraceDropped
	tr.EndAt = at
	tr.Flow = at - release
	t.terminal(tr)
}

// OnRetry implements Probe: the crash-aborted attempt closes and the task
// re-enters the queued state until its re-dispatch.
func (t *Tracer) OnRetry(task, attempt int, at core.Time) {
	tr := t.live[task]
	if tr == nil {
		return
	}
	tr.abort(AttemptCrashed, at)
	tr.Retries++
}

// OnFailover implements Probe. Per-task crash consequences arrive through
// OnRetry/OnDrop, so the tracer needs nothing here.
func (t *Tracer) OnFailover(server int, at core.Time, lost int) {}

// OnDone implements Probe: unresolved tasks are flushed into retention
// (ranking above every finite flow) in task order.
func (t *Tracer) OnDone(makespan core.Time) {
	t.makespan = makespan
	t.done = true
	if t.retain.k == 0 {
		return
	}
	ids := make([]int, 0, len(t.live))
	for id := range t.live {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		t.terminal(t.live[id])
	}
}

// OnReject implements OverloadObserver: the task resolves rejected with no
// attempts.
func (t *Tracer) OnReject(task int, at core.Time, reason string) {
	tr := t.live[task]
	if tr == nil {
		return
	}
	tr.State = TraceRejected
	tr.Reason = reason
	tr.EndAt = at
	tr.Flow = at - tr.Release
	t.terminal(tr)
}

// OnShed implements OverloadObserver: the pending attempt (if any — a
// deadline shed happens before dispatch and has none) closes as shed and
// the task resolves shed.
func (t *Tracer) OnShed(task, server int, release, at core.Time, reason string) {
	tr := t.live[task]
	if tr == nil {
		return
	}
	tr.abort(AttemptShed, at)
	tr.State = TraceShed
	tr.Reason = reason
	tr.EndAt = at
	tr.Flow = at - release
	t.terminal(tr)
}

// OnEject implements OverloadObserver (no per-task consequence).
func (t *Tracer) OnEject(server int, at core.Time) {}

// OnReadmit implements OverloadObserver (no per-task consequence).
func (t *Tracer) OnReadmit(server int, at core.Time) {}

// OnBrownout implements OverloadObserver (no per-task consequence).
func (t *Tracer) OnBrownout(at core.Time, active bool) {}

// OnScaleUp implements MembershipObserver (no per-task consequence).
func (t *Tracer) OnScaleUp(machine int, at, ready core.Time) {}

// OnJoin implements MembershipObserver (no per-task consequence).
func (t *Tracer) OnJoin(machine int, at core.Time, members int) {}

// OnScaleDown implements MembershipObserver (per-task consequences arrive
// through OnHandoff).
func (t *Tracer) OnScaleDown(machine int, at core.Time, members, handoffs int) {}

// OnHandoff implements MembershipObserver: the pending attempt closes as
// handed-off; the re-dispatch (or parking) follows through OnDispatch.
func (t *Tracer) OnHandoff(task, from int, at core.Time) {
	tr := t.live[task]
	if tr == nil {
		return
	}
	tr.abort(AttemptHandedOff, at)
}

// OnHedge implements HedgeObserver: the speculative copy opens as a sibling
// span racing the pending primary attempt.
func (t *Tracer) OnHedge(task, from, to int, at, start, end core.Time) {
	tr := t.live[task]
	if tr == nil {
		return
	}
	tr.Attempts = append(tr.Attempts, AttemptSpan{
		Server: to, At: at, Start: start, End: end,
		AbortAt: core.Time(math.NaN()), Hedge: true,
	})
}

// OnHedgeWin implements HedgeObserver. The winning attempt closes through
// OnComplete (server-matched) and the loser through OnHedgeCancel, so the
// tracer needs nothing here.
func (t *Tracer) OnHedgeWin(task, server int, byCopy bool, at core.Time) {}

// OnHedgeCancel implements HedgeObserver: the losing attempt on the given
// server (primary or copy) closes as hedge-cancelled. It is the one hook
// that can follow the task's terminal event — the primary is cancelled
// after its copy completes, the copy after the primary is shed — so it
// also reaches traces KeepWorst has already retained.
func (t *Tracer) OnHedgeCancel(task, server int, at core.Time, started bool) {
	tr := t.Trace(task)
	if tr == nil {
		return
	}
	if a := tr.openOn(server); a != nil {
		a.Outcome = AttemptHedgeCancelled
		a.AbortAt = at
	}
}

// WriteJSON writes the retained traces (sorted by task id) and the run's
// makespan as one indented JSON document, NaN-safe.
func (t *Tracer) WriteJSON(w io.Writer) error {
	doc := struct {
		Makespan core.NullTime `json:"makespan"`
		Tasks    []*TaskTrace  `json:"tasks"`
	}{core.NullTime(t.makespan), t.Traces()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("obs: writing traces: %w", err)
	}
	return nil
}
