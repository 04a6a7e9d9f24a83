package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"flowsched/internal/core"
)

// FlightEvent is one raw engine event of the flight recorder: the flat
// union of every hook's payload, keyed by Ev. The kinds are the JSONLSink
// record kinds plus the overload, membership, hedge and resilience event
// streams — 23 in all, one per hook. Fields that do not apply to a kind
// carry -1 (ids/counts) or NaN (instants), so records round-trip through
// JSON Lines unambiguously.
type FlightEvent struct {
	Ev       string        `json:"ev"`
	T        core.NullTime `json:"t"`
	Task     int           `json:"task"`
	Server   int           `json:"server"`
	Start    core.NullTime `json:"start"`
	End      core.NullTime `json:"end"`
	Release  core.NullTime `json:"release"`
	Proc     core.NullTime `json:"proc"`
	Ready    core.NullTime `json:"ready"`
	Attempt  int           `json:"attempt"`
	Lost     int           `json:"lost"`
	Members  int           `json:"members"`
	Handoffs int           `json:"handoffs"`
	Reason   string        `json:"reason,omitempty"`
	Active   bool          `json:"active,omitempty"`
	From     int           `json:"from"`              // primary's server at hedge issue (-1 if parked)
	Copy     bool          `json:"copy,omitempty"`    // hedge-win: the speculative copy won
	Started  bool          `json:"started,omitempty"` // hedge-cancel: loser was mid-service
}

// nanT is the absent-instant sentinel of a FlightEvent.
func nanT() core.NullTime { return core.NullTime(math.NaN()) }

// blankEvent is a FlightEvent with every optional field at its absent
// sentinel; hook recorders fill in what applies.
func blankEvent(ev string, t core.Time) FlightEvent {
	return FlightEvent{
		Ev: ev, T: core.NullTime(t),
		Task: -1, Server: -1, Attempt: -1, Lost: -1, Members: -1, Handoffs: -1, From: -1,
		Start: nanT(), End: nanT(), Release: nanT(), Proc: nanT(), Ready: nanT(),
	}
}

// flightKind is a FlightEvent's Ev in the ring's compact record.
type flightKind uint8

const (
	evArrival flightKind = iota
	evDispatch
	evComplete
	evDrop
	evRetry
	evFailover
	evDone
	evReject
	evShed
	evEject
	evReadmit
	evBrownout
	evScaleUp
	evJoin
	evScaleDown
	evHandoff
	evHedge
	evHedgeWin
	evHedgeCancel
	evBreakerOpen
	evBreakerProbe
	evBreakerClose
	evRetryBudgetDrop
)

// flightKindNames maps each kind to its wire name (FlightEvent.Ev).
var flightKindNames = [...]string{
	evArrival: "arrival", evDispatch: "dispatch", evComplete: "complete", evDrop: "drop",
	evRetry: "retry", evFailover: "failover", evDone: "done",
	evReject: "reject", evShed: "shed", evEject: "eject", evReadmit: "readmit", evBrownout: "brownout",
	evScaleUp: "scale-up", evJoin: "join", evScaleDown: "scale-down", evHandoff: "handoff",
	evHedge: "hedge", evHedgeWin: "hedge-win", evHedgeCancel: "hedge-cancel",
	evBreakerOpen: "breaker-open", evBreakerProbe: "breaker-probe", evBreakerClose: "breaker-close",
	evRetryBudgetDrop: "retry-budget-drop",
}

// flightRecord is one ring slot: a FlightEvent's payload in 72 bytes
// instead of 152. It keeps the kind, the event instant t, the kind's ints in
// a, b, c and its other instants in t1, t2 — a is the task for kinds that
// name one — plus the one flag and the reason any kind carries. Hooks write
// it in place; event expands it.
type flightRecord struct {
	kind      flightKind
	flag      bool
	a, b, c   int
	t, t1, t2 core.Time
	reason    string
}

// task returns the task the record names, -1 for kinds that name none.
func (rec *flightRecord) task() int {
	switch rec.kind {
	case evFailover, evDone, evEject, evReadmit, evBrownout, evScaleUp, evJoin, evScaleDown,
		evBreakerOpen, evBreakerClose:
		return -1
	}
	return rec.a
}

// event expands the record into the FlightEvent its hook describes.
func (rec *flightRecord) event() FlightEvent {
	ev := blankEvent(flightKindNames[rec.kind], rec.t)
	t1, t2 := core.NullTime(rec.t1), core.NullTime(rec.t2)
	switch rec.kind {
	case evArrival:
		ev.Task = rec.a
	case evDispatch:
		ev.Task, ev.Server, ev.Start, ev.End = rec.a, rec.b, t1, t2
	case evComplete:
		ev.Task, ev.Server, ev.Release, ev.Proc = rec.a, rec.b, t1, t2
	case evDrop:
		ev.Task, ev.Release = rec.a, t1
	case evRetry, evRetryBudgetDrop:
		ev.Task, ev.Attempt = rec.a, rec.b
	case evFailover:
		ev.Server, ev.Lost = rec.a, rec.b
	case evReject:
		ev.Task, ev.Reason = rec.a, rec.reason
	case evShed:
		ev.Task, ev.Server, ev.Release, ev.Reason = rec.a, rec.b, t1, rec.reason
	case evEject, evReadmit, evBreakerOpen, evBreakerClose:
		ev.Server = rec.a
	case evBrownout:
		ev.Active = rec.flag
	case evScaleUp:
		ev.Server, ev.Ready = rec.a, t1
	case evJoin:
		ev.Server, ev.Members = rec.a, rec.b
	case evScaleDown:
		ev.Server, ev.Members, ev.Handoffs = rec.a, rec.b, rec.c
	case evHandoff, evBreakerProbe:
		ev.Task, ev.Server = rec.a, rec.b
	case evHedge:
		ev.Task, ev.Server, ev.From, ev.Start, ev.End = rec.a, rec.b, rec.c, t1, t2
	case evHedgeWin:
		ev.Task, ev.Server, ev.Copy = rec.a, rec.b, rec.flag
	case evHedgeCancel:
		ev.Task, ev.Server, ev.Started = rec.a, rec.b, rec.flag
	}
	return ev
}

// DefaultFlightSize is the ring capacity a FlightRecorder gets when
// constructed with size ≤ 0.
const DefaultFlightSize = 4096

// FlightRecorder is a Probe (plus OverloadObserver, MembershipObserver,
// HedgeObserver and ResilienceObserver)
// keeping the last N raw events of a run in a fixed-size ring — the
// always-on crash recorder. When a soak trial fails or an audit violation
// names a task, the ring holds the causal context without anyone having
// planned to trace that run; internal/chaos dumps it next to the shrunk
// repro and internal/audit attaches per-task evidence to its report.
//
// Recording allocates nothing: each hook writes a compact record into its
// ring slot, and only Events, TaskEvents and WriteJSONL expand records into
// FlightEvents.
//
// A FlightRecorder is not safe for concurrent use; attach one per run.
type FlightRecorder struct {
	ring  []flightRecord
	next  int // ring slot the next event is written to
	total int // events ever recorded
}

// NewFlightRecorder returns a recorder keeping the last size events
// (DefaultFlightSize when size ≤ 0).
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightSize
	}
	return &FlightRecorder{ring: make([]flightRecord, size)}
}

// put returns the ring slot the next event is written to, overwriting the
// oldest once the ring is full.
func (r *FlightRecorder) put() *flightRecord {
	rec := &r.ring[r.next]
	if r.next++; r.next == len(r.ring) {
		r.next = 0
	}
	r.total++
	return rec
}

// Len returns the number of events currently held (≤ the ring capacity).
func (r *FlightRecorder) Len() int { return min(r.total, len(r.ring)) }

// Dropped returns how many older events the ring has overwritten.
func (r *FlightRecorder) Dropped() int { return r.total - r.Len() }

// Reset empties the ring for reuse across runs.
func (r *FlightRecorder) Reset() { r.next, r.total = 0, 0 }

// at returns the i-th oldest held record.
func (r *FlightRecorder) at(i int) *flightRecord {
	if r.Dropped() > 0 {
		i += r.next // the ring is full: the oldest sits where the next goes
	}
	return &r.ring[i%len(r.ring)]
}

// Events returns the held events oldest-first (a copy).
func (r *FlightRecorder) Events() []FlightEvent {
	out := make([]FlightEvent, r.Len())
	for i := range out {
		out[i] = r.at(i).event()
	}
	return out
}

// TaskEvents returns the held events naming the task, oldest-first.
func (r *FlightRecorder) TaskEvents(task int) []FlightEvent {
	var out []FlightEvent
	for i := 0; i < r.Len(); i++ {
		if rec := r.at(i); rec.task() == task {
			out = append(out, rec.event())
		}
	}
	return out
}

// WriteJSONL writes the held events oldest-first, one JSON object per line
// — the flight-recorder dump format read back by ReadFlightEvents.
func (r *FlightRecorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	for i := 0; i < r.Len(); i++ {
		if err := enc.Encode(r.at(i).event()); err != nil {
			return fmt.Errorf("obs: writing flight events: %w", err)
		}
	}
	return bw.Flush()
}

// WriteFlightEvents writes an event slice in the WriteJSONL dump format.
func WriteFlightEvents(w io.Writer, events []FlightEvent) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("obs: writing flight events: %w", err)
		}
	}
	return bw.Flush()
}

// ReadFlightEvents reads a WriteJSONL dump back, absent instants decoding
// to NaN.
func ReadFlightEvents(rd io.Reader) ([]FlightEvent, error) {
	var out []FlightEvent
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		ev := blankEvent("", core.Time(math.NaN()))
		if err := json.Unmarshal(raw, &ev); err != nil {
			return nil, fmt.Errorf("obs: flight events line %d: %w", line, err)
		}
		if ev.Ev == "" {
			return nil, fmt.Errorf("obs: flight events line %d: missing event kind", line)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading flight events: %w", err)
	}
	return out, nil
}

// OnArrival implements Probe.
func (r *FlightRecorder) OnArrival(task int, release core.Time) {
	*r.put() = flightRecord{kind: evArrival, t: release, a: task}
}

// OnDispatch implements Probe.
func (r *FlightRecorder) OnDispatch(task, server int, at, start, end core.Time) {
	*r.put() = flightRecord{kind: evDispatch, t: at, a: task, b: server, t1: start, t2: end}
}

// OnComplete implements Probe.
func (r *FlightRecorder) OnComplete(task, server int, release, proc, end core.Time) {
	*r.put() = flightRecord{kind: evComplete, t: end, a: task, b: server, t1: release, t2: proc}
}

// OnDrop implements Probe.
func (r *FlightRecorder) OnDrop(task int, release, at core.Time) {
	*r.put() = flightRecord{kind: evDrop, t: at, a: task, t1: release}
}

// OnRetry implements Probe.
func (r *FlightRecorder) OnRetry(task, attempt int, at core.Time) {
	*r.put() = flightRecord{kind: evRetry, t: at, a: task, b: attempt}
}

// OnFailover implements Probe.
func (r *FlightRecorder) OnFailover(server int, at core.Time, lost int) {
	*r.put() = flightRecord{kind: evFailover, t: at, a: server, b: lost}
}

// OnDone implements Probe.
func (r *FlightRecorder) OnDone(makespan core.Time) {
	*r.put() = flightRecord{kind: evDone, t: makespan}
}

// OnReject implements OverloadObserver.
func (r *FlightRecorder) OnReject(task int, at core.Time, reason string) {
	*r.put() = flightRecord{kind: evReject, t: at, a: task, reason: reason}
}

// OnShed implements OverloadObserver.
func (r *FlightRecorder) OnShed(task, server int, release, at core.Time, reason string) {
	*r.put() = flightRecord{kind: evShed, t: at, a: task, b: server, t1: release, reason: reason}
}

// OnEject implements OverloadObserver.
func (r *FlightRecorder) OnEject(server int, at core.Time) {
	*r.put() = flightRecord{kind: evEject, t: at, a: server}
}

// OnReadmit implements OverloadObserver.
func (r *FlightRecorder) OnReadmit(server int, at core.Time) {
	*r.put() = flightRecord{kind: evReadmit, t: at, a: server}
}

// OnBrownout implements OverloadObserver.
func (r *FlightRecorder) OnBrownout(at core.Time, active bool) {
	*r.put() = flightRecord{kind: evBrownout, t: at, flag: active}
}

// OnScaleUp implements MembershipObserver.
func (r *FlightRecorder) OnScaleUp(machine int, at, ready core.Time) {
	*r.put() = flightRecord{kind: evScaleUp, t: at, a: machine, t1: ready}
}

// OnJoin implements MembershipObserver.
func (r *FlightRecorder) OnJoin(machine int, at core.Time, members int) {
	*r.put() = flightRecord{kind: evJoin, t: at, a: machine, b: members}
}

// OnScaleDown implements MembershipObserver.
func (r *FlightRecorder) OnScaleDown(machine int, at core.Time, members, handoffs int) {
	*r.put() = flightRecord{kind: evScaleDown, t: at, a: machine, b: members, c: handoffs}
}

// OnHandoff implements MembershipObserver.
func (r *FlightRecorder) OnHandoff(task, from int, at core.Time) {
	*r.put() = flightRecord{kind: evHandoff, t: at, a: task, b: from}
}

// OnHedge implements HedgeObserver.
func (r *FlightRecorder) OnHedge(task, from, to int, at, start, end core.Time) {
	*r.put() = flightRecord{kind: evHedge, t: at, a: task, b: to, c: from, t1: start, t2: end}
}

// OnHedgeWin implements HedgeObserver.
func (r *FlightRecorder) OnHedgeWin(task, server int, byCopy bool, at core.Time) {
	*r.put() = flightRecord{kind: evHedgeWin, t: at, a: task, b: server, flag: byCopy}
}

// OnHedgeCancel implements HedgeObserver.
func (r *FlightRecorder) OnHedgeCancel(task, server int, at core.Time, started bool) {
	*r.put() = flightRecord{kind: evHedgeCancel, t: at, a: task, b: server, flag: started}
}

// OnBreakerOpen implements ResilienceObserver.
func (r *FlightRecorder) OnBreakerOpen(server int, at core.Time) {
	*r.put() = flightRecord{kind: evBreakerOpen, t: at, a: server}
}

// OnBreakerProbe implements ResilienceObserver.
func (r *FlightRecorder) OnBreakerProbe(server, task int, at core.Time) {
	*r.put() = flightRecord{kind: evBreakerProbe, t: at, a: task, b: server}
}

// OnBreakerClose implements ResilienceObserver.
func (r *FlightRecorder) OnBreakerClose(server int, at core.Time) {
	*r.put() = flightRecord{kind: evBreakerClose, t: at, a: server}
}

// OnRetryBudgetDrop implements ResilienceObserver.
func (r *FlightRecorder) OnRetryBudgetDrop(task, attempts int, at core.Time) {
	*r.put() = flightRecord{kind: evRetryBudgetDrop, t: at, a: task, b: attempts}
}
