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
// spans resolve only through a completion or a hedge cancellation.
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

// Tracer is a Sink that assembles per-task causal span trees from the
// engine's event stream with zero engine changes: queued → attempt[k]
// (server, [start,end), aborted-by-crash / handed-off / shed) → complete |
// drop | reject.
//
// The engine re-times attempts queued behind a watermark shed without an
// event; the tracer reconciles at completion time — the completion
// instant is always exact, and a mismatch with the forecast interval marks
// the attempt Retimed (see AttemptSpan.Retimed).
//
// A Tracer is not safe for concurrent use; attach one per run.
type Tracer struct {
	retain Retention

	live traceIndex   // tasks with no terminal event yet (KeepAll: every task)
	all  []*TaskTrace // KeepAll: every trace in arrival order
	heap []*TaskTrace // KeepWorst: min-heap by (rank, task)
	free []*TaskTrace // KeepWorst: discarded traces an arrival reuses

	makespan core.Time
	done     bool
}

// NewTracer returns a tracer with the given retention policy (KeepAll() or
// KeepWorst(k)).
func NewTracer(r Retention) *Tracer {
	t := &Tracer{retain: r, live: newTraceIndex()}
	if r.k > 0 {
		t.heap = make([]*TaskTrace, 0, r.k)
	}
	return t
}

// traceIndex maps task ids to their live traces without hashing: open
// addressing with linear probing over a power-of-two table, where a task's
// home slot is its id modulo the table size. The engine's live ids are a
// window of recent arrivals, so most land in their home slot. A delete
// leaves a tombstone, which lookups probe past, so it moves nothing.
// (Shifting the probe run back instead would walk the whole cluster that
// consecutive ids form.) The table doubles once live traces pass half its
// slots, purges its tombstones in place once live traces and tombstones
// together pass three quarters, and never shrinks.
type traceIndex struct {
	slots []traceSlot
	live  int // traces in the table
	dead  int // tombstones
}

// traceSlot is one table entry: tr is nil when the slot is empty and
// tombstone where a trace was deleted. id is the task id, kept beside the
// pointer so that probing and purging never load a trace.
type traceSlot struct {
	id int
	tr *TaskTrace
}

// tombstone marks a deleted slot; it is never a task's trace.
var tombstone = new(TaskTrace)

// traceIndexMin is a new index's slot count: a power of two, and at least
// 8, so the purge threshold always leaves an empty slot (see purge). 256
// slots take 128 live traces before the first doubling, about what a
// paper-sized run with every engine link armed keeps unresolved at once.
const traceIndexMin = 256

func newTraceIndex() traceIndex {
	return traceIndex{slots: make([]traceSlot, traceIndexMin)}
}

// get returns task id's trace, nil if the table holds none.
func (x *traceIndex) get(id int) *TaskTrace {
	mask := len(x.slots) - 1
	for i := id & mask; ; i = (i + 1) & mask {
		s := x.slots[i]
		if s.tr == nil {
			return nil
		}
		if s.id == id && s.tr != tombstone {
			return s.tr
		}
	}
}

// put stores tr under its task id, replacing any trace the table holds
// for that id. A new entry takes the first tombstone on its probe path, or
// else the empty slot that ends it.
func (x *traceIndex) put(tr *TaskTrace) {
	id, mask := tr.Task, len(x.slots)-1
	at := -1 // first tombstone on the probe path
	i := id & mask
	for ; x.slots[i].tr != nil; i = (i + 1) & mask {
		if s := x.slots[i]; s.tr == tombstone {
			if at < 0 {
				at = i
			}
		} else if s.id == id {
			x.slots[i].tr = tr
			return
		}
	}
	if at >= 0 {
		i = at
		x.dead--
	}
	x.slots[i] = traceSlot{id: id, tr: tr}
	x.live++
	switch {
	case 2*x.live > len(x.slots):
		x.rehash(2 * len(x.slots))
	case 4*(x.live+x.dead) > 3*len(x.slots):
		x.purge()
	}
}

// del removes task id's trace, leaving a tombstone; an absent id is a
// no-op.
func (x *traceIndex) del(id int) {
	mask := len(x.slots) - 1
	for i := id & mask; x.slots[i].tr != nil; i = (i + 1) & mask {
		if s := x.slots[i]; s.id == id && s.tr != tombstone {
			x.slots[i].tr = tombstone
			x.live--
			x.dead++
			return
		}
	}
}

// rehash moves every trace into a fresh table of the given size.
func (x *traceIndex) rehash(size int) {
	old := x.slots
	x.slots, x.dead = make([]traceSlot, size), 0
	mask := size - 1
	for _, s := range old {
		if s.tr == nil || s.tr == tombstone {
			continue
		}
		i := s.id & mask
		for x.slots[i].tr != nil {
			i = (i + 1) & mask
		}
		x.slots[i] = s
	}
}

// purge clears every tombstone without allocating. It empties them, then
// walks the ring once, starting after a slot that was already empty (no
// probe run crosses such a slot), and moves each trace back to the first
// empty slot from its home. A trace only moves toward its home, and the
// slots between its home and its new place stay full, so every lookup
// still reaches its trace.
func (x *traceIndex) purge() {
	mask := len(x.slots) - 1
	from := -1
	for i, s := range x.slots {
		if s.tr == tombstone {
			x.slots[i].tr = nil
		} else if s.tr == nil && from < 0 {
			from = i
		}
	}
	x.dead = 0
	for k := 1; k < len(x.slots); k++ {
		p := (from + k) & mask
		s := x.slots[p]
		if s.tr == nil {
			continue
		}
		q := s.id & mask
		for q != p && x.slots[q].tr != nil {
			q = (q + 1) & mask
		}
		if q != p {
			x.slots[q], x.slots[p] = s, traceSlot{}
		}
	}
}

// each calls f for every trace in the table, in slot order.
func (x *traceIndex) each(f func(*TaskTrace)) {
	for _, s := range x.slots {
		if s.tr != nil && s.tr != tombstone {
			f(s.tr)
		}
	}
}

// Done reports whether the traced run has finished (its done event arrived).
func (t *Tracer) Done() bool { return t.done }

// Makespan returns the traced run's makespan (0 before the done event).
func (t *Tracer) Makespan() core.Time { return t.makespan }

// Trace returns the task's trace, nil if it was never seen or was discarded
// by KeepWorst retention. Under KeepWorst a discarded trace is reused for a
// later arrival, so mid-run the returned pointer describes task only until
// the tracer's next arrival event; after the done event it stays valid.
func (t *Tracer) Trace(task int) *TaskTrace {
	if tr := t.live.get(task); tr != nil {
		return tr
	}
	for _, tr := range t.heap {
		if tr.Task == task {
			return tr
		}
	}
	return nil
}

// Traces returns every retained trace sorted by task id. Mid-run under
// KeepWorst the pointers are valid until the next arrival (see Trace).
func (t *Tracer) Traces() []*TaskTrace {
	var out []*TaskTrace
	if t.retain.k > 0 {
		out = append(out, t.heap...)
		t.live.each(func(tr *TaskTrace) { out = append(out, tr) })
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
	t.live.del(tr.Task)
	if len(t.heap) < t.retain.k {
		t.heap = append(t.heap, tr)
		t.siftUp(len(t.heap) - 1)
		return
	}
	if !worse(tr, t.heap[0]) {
		t.free = append(t.free, tr) // benign: not among the k worst seen so far
		return
	}
	t.free = append(t.free, t.heap[0])
	t.heap[0] = tr
	t.siftDown(0)
}

// Observe implements Sink. Events with no per-task consequence — failovers
// (their crashes arrive as retries and drops), ejections, brownouts, scale
// events other than handoffs, hedge wins (the winner closes through its
// completion) and the resilience stream — are ignored.
func (t *Tracer) Observe(e Event) {
	switch e.Kind {
	case Arrival:
		t.arrival(e.Task, e.At)
	case Dispatch:
		t.dispatch(e.Task, e.Server, e.At, e.T1, e.T2, false)
	case Hedge:
		t.dispatch(e.Task, e.Server, e.At, e.T1, e.T2, true)
	case Complete:
		t.complete(e.Task, e.Server, e.T1, e.T2, e.At)
	case Drop:
		t.resolve(e.Task, TraceDropped, AttemptCrashed, e.T1, e.At, "")
	case Shed:
		t.resolve(e.Task, TraceShed, AttemptShed, e.T1, e.At, e.Reason)
	case Reject:
		t.reject(e.Task, e.At, e.Reason)
	case Retry:
		if tr := t.live.get(e.Task); tr != nil {
			tr.abort(AttemptCrashed, e.At)
			tr.Retries++
		}
	case Handoff:
		// The re-dispatch (or parking) follows as a dispatch event.
		if tr := t.live.get(e.Task); tr != nil {
			tr.abort(AttemptHandedOff, e.At)
		}
	case HedgeCancel:
		t.hedgeCancel(e.Task, e.Server, e.At)
	case Done:
		t.finish(e.At)
	}
}

// arrival opens the task's queued root span, in a recycled trace when
// KeepWorst has discarded one (keeping its Attempts capacity).
func (t *Tracer) arrival(task int, release core.Time) {
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
	t.live.put(tr)
	if t.retain.k == 0 {
		t.all = append(t.all, tr)
	}
}

// dispatch opens an attempt with the engine's forecast service interval:
// the next primary attempt, or, for a hedge, the speculative copy's sibling
// span racing the pending primary.
func (t *Tracer) dispatch(task, server int, at, start, end core.Time, hedge bool) {
	tr := t.live.get(task)
	if tr == nil {
		return // tracer attached mid-run; ignore tasks we never saw arrive
	}
	tr.Attempts = append(tr.Attempts, AttemptSpan{
		Server: server, At: at, Start: start, End: end,
		AbortAt: core.Time(math.NaN()), Hedge: hedge,
	})
}

// complete closes the pending attempt, reconciling a silent watermark
// re-time — the completion end is exact, so a forecast mismatch flags
// Retimed and reconstructs the start as end − proc.
func (t *Tracer) complete(task, server int, release, proc, end core.Time) {
	tr := t.live.get(task)
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

// resolve ends a dropped or shed task: its pending attempt (aborted by the
// crash behind the drop, or queued where the shedder found it; a deadline
// shed happens before dispatch and has none) closes with the outcome, and
// the task resolves at instant at.
func (t *Tracer) resolve(task int, state TraceState, o AttemptOutcome, release, at core.Time, reason string) {
	tr := t.live.get(task)
	if tr == nil {
		return
	}
	tr.abort(o, at)
	tr.State = state
	tr.Reason = reason
	tr.EndAt = at
	tr.Flow = at - release
	t.terminal(tr)
}

// finish flushes unresolved tasks into retention (ranking above every
// finite flow) in task order.
func (t *Tracer) finish(makespan core.Time) {
	t.makespan = makespan
	t.done = true
	if t.retain.k == 0 {
		return
	}
	ids := make([]int, 0, t.live.live)
	t.live.each(func(tr *TaskTrace) { ids = append(ids, tr.Task) })
	sort.Ints(ids)
	for _, id := range ids {
		t.terminal(t.live.get(id))
	}
}

// reject resolves the task rejected, with no attempts.
func (t *Tracer) reject(task int, at core.Time, reason string) {
	tr := t.live.get(task)
	if tr == nil {
		return
	}
	tr.State = TraceRejected
	tr.Reason = reason
	tr.EndAt = at
	tr.Flow = at - tr.Release
	t.terminal(tr)
}

// hedgeCancel closes the losing attempt on the given server (primary or
// copy) as hedge-cancelled. It is the one event that can follow the task's
// terminal event — the primary is cancelled after its copy completes, the
// copy after the primary is shed — so it also reaches traces KeepWorst has
// already retained.
func (t *Tracer) hedgeCancel(task, server int, at core.Time) {
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
