package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"flowsched/internal/core"
)

// FlightEvent is an Event in the flight recorder's dump form, keyed by Ev
// (the kind's wire name) with each field under the name of the hook
// parameter it holds. Fields that do not apply to a kind carry -1
// (ids/counts) or NaN (instants), so records round-trip through JSON Lines
// unambiguously.
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
// sentinel; Event.flight fills in what applies.
func blankEvent(ev string, t core.Time) FlightEvent {
	return FlightEvent{
		Ev: ev, T: core.NullTime(t),
		Task: -1, Server: -1, Attempt: -1, Lost: -1, Members: -1, Handoffs: -1, From: -1,
		Start: nanT(), End: nanT(), Release: nanT(), Proc: nanT(), Ready: nanT(),
	}
}

// flight expands the event into the FlightEvent of its kind. Task, Server
// and Reason carry over as they are: the kinds that name no task or server
// hold −1 there, and only rejections and sheds carry a reason.
func (e *Event) flight() FlightEvent {
	ev := blankEvent(e.Kind.String(), e.At)
	ev.Task, ev.Server, ev.Reason = e.Task, e.Server, e.Reason
	t1, t2 := core.NullTime(e.T1), core.NullTime(e.T2)
	switch e.Kind {
	case Dispatch:
		ev.Start, ev.End = t1, t2
	case Complete:
		ev.Release, ev.Proc = t1, t2
	case Drop, Shed:
		ev.Release = t1
	case Retry, RetryBudgetDrop:
		ev.Attempt = e.Aux
	case Failover:
		ev.Lost = e.Aux
	case Brownout:
		ev.Active = e.Flag
	case ScaleUp:
		ev.Ready = t1
	case Join:
		ev.Members = e.Aux
	case ScaleDown:
		ev.Members, ev.Handoffs = e.Aux, int(e.T1)
	case Hedge:
		ev.From, ev.Start, ev.End = e.Aux, t1, t2
	case HedgeWin:
		ev.Copy = e.Flag
	case HedgeCancel:
		ev.Started = e.Flag
	}
	return ev
}

// DefaultFlightSize is the ring capacity a FlightRecorder gets when
// constructed with size ≤ 0.
const DefaultFlightSize = 4096

// FlightRecorder is a Sink keeping the last N events of a run, of every
// kind, in a fixed-size ring — the always-on crash recorder. When a soak trial fails or an audit violation
// names a task, the ring holds the causal context without anyone having
// planned to trace that run; internal/chaos dumps it next to the shrunk
// repro and internal/audit attaches per-task evidence to its report.
//
// Recording allocates nothing: Observe copies the Event into its ring slot,
// and only Events, TaskEvents and WriteJSONL expand events into
// FlightEvents.
//
// A FlightRecorder is not safe for concurrent use; attach one per run.
type FlightRecorder struct {
	ring  []Event
	next  int // ring slot the next event is written to
	total int // events ever recorded
}

// NewFlightRecorder returns a recorder keeping the last size events
// (DefaultFlightSize when size ≤ 0).
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightSize
	}
	return &FlightRecorder{ring: make([]Event, size)}
}

// Observe implements Sink: it writes e into the next ring slot, overwriting
// the oldest event once the ring is full. It stores field by field: a
// whole-struct copy reloads the spilled argument in 16-byte pieces that
// straddle its narrower spills, which defeats store-to-load forwarding.
func (r *FlightRecorder) Observe(e Event) {
	slot := &r.ring[r.next]
	slot.Kind, slot.Flag, slot.Task, slot.Server, slot.Aux = e.Kind, e.Flag, e.Task, e.Server, e.Aux
	slot.At, slot.T1, slot.T2, slot.Reason = e.At, e.T1, e.T2, e.Reason
	if r.next++; r.next == len(r.ring) {
		r.next = 0
	}
	r.total++
}

// Len returns the number of events currently held (≤ the ring capacity).
func (r *FlightRecorder) Len() int { return min(r.total, len(r.ring)) }

// Dropped returns how many older events the ring has overwritten.
func (r *FlightRecorder) Dropped() int { return r.total - r.Len() }

// Reset empties the ring for reuse across runs.
func (r *FlightRecorder) Reset() { r.next, r.total = 0, 0 }

// at returns the i-th oldest held event.
func (r *FlightRecorder) at(i int) *Event {
	if r.Dropped() > 0 {
		i += r.next // the ring is full: the oldest sits where the next goes
	}
	return &r.ring[i%len(r.ring)]
}

// Events returns the held events oldest-first (a copy).
func (r *FlightRecorder) Events() []FlightEvent {
	out := make([]FlightEvent, r.Len())
	for i := range out {
		out[i] = r.at(i).flight()
	}
	return out
}

// TaskEvents returns the held events naming the task, oldest-first.
func (r *FlightRecorder) TaskEvents(task int) []FlightEvent {
	var out []FlightEvent
	for i := 0; i < r.Len(); i++ {
		if e := r.at(i); e.Task == task {
			out = append(out, e.flight())
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
		if err := enc.Encode(r.at(i).flight()); err != nil {
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
