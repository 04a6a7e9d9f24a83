package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"flowsched/internal/core"
	"flowsched/internal/trace"
)

// JSONLSink is a Sink that writes one JSON object per event of the base
// stream, newline delimited, through a buffered writer — the structured
// event log for offline analysis. Schema (one record kind per line, keyed
// by "ev"):
//
//	{"ev":"arrival","t":<release>,"task":<id>}
//	{"ev":"dispatch","t":<at>,"task":<id>,"server":<j>,"start":<s>,"end":<e>}
//	{"ev":"complete","t":<end>,"task":<id>,"server":<j>,"release":<r>,"proc":<p>}
//	{"ev":"retry","t":<at>,"task":<id>,"attempt":<a>}
//	{"ev":"drop","t":<at>,"task":<id>,"release":<r>}
//	{"ev":"failover","t":<at>,"server":<j>,"lost":<n>}
//	{"ev":"done","t":<makespan>}
//
// Times are written with Go's shortest round-trip float encoding, so a
// replay through ReplayTrace reproduces the exact instants; non-finite
// instants (the engine's deliberate NaN sentinels) encode as null instead of
// aborting the whole log write (core.NullTime). Errors are
// sticky: the first write error is retained and reported by Flush/Err, and
// subsequent events are dropped.
type JSONLSink struct {
	w   *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONLSink returns a sink writing to w. Call Flush (or check Err) when
// the run is done; the sink buffers aggressively.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &JSONLSink{w: bw, enc: json.NewEncoder(bw)}
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error { return s.err }

// Flush drains the buffer and returns the first error seen.
func (s *JSONLSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}

func (s *JSONLSink) emit(rec interface{}) {
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(rec)
}

// Observe implements Sink: it writes the base stream's kinds, one record
// each, and ignores the others. The done record is the trailer: it also
// flushes.
func (s *JSONLSink) Observe(e Event) {
	ev, t := e.Kind.String(), core.NullTime(e.At)
	switch e.Kind {
	case Arrival:
		s.emit(struct {
			Ev   string        `json:"ev"`
			T    core.NullTime `json:"t"`
			Task int           `json:"task"`
		}{ev, t, e.Task})
	case Dispatch:
		s.emit(struct {
			Ev     string        `json:"ev"`
			T      core.NullTime `json:"t"`
			Task   int           `json:"task"`
			Server int           `json:"server"`
			Start  core.NullTime `json:"start"`
			End    core.NullTime `json:"end"`
		}{ev, t, e.Task, e.Server, core.NullTime(e.T1), core.NullTime(e.T2)})
	case Complete:
		s.emit(struct {
			Ev      string        `json:"ev"`
			T       core.NullTime `json:"t"`
			Task    int           `json:"task"`
			Server  int           `json:"server"`
			Release core.NullTime `json:"release"`
			Proc    core.NullTime `json:"proc"`
		}{ev, t, e.Task, e.Server, core.NullTime(e.T1), core.NullTime(e.T2)})
	case Drop:
		s.emit(struct {
			Ev      string        `json:"ev"`
			T       core.NullTime `json:"t"`
			Task    int           `json:"task"`
			Release core.NullTime `json:"release"`
		}{ev, t, e.Task, core.NullTime(e.T1)})
	case Retry:
		s.emit(struct {
			Ev      string        `json:"ev"`
			T       core.NullTime `json:"t"`
			Task    int           `json:"task"`
			Attempt int           `json:"attempt"`
		}{ev, t, e.Task, e.Aux})
	case Failover:
		s.emit(struct {
			Ev     string        `json:"ev"`
			T      core.NullTime `json:"t"`
			Server int           `json:"server"`
			Lost   int           `json:"lost"`
		}{ev, t, e.Server, e.Aux})
	case Done:
		s.emit(struct {
			Ev string        `json:"ev"`
			T  core.NullTime `json:"t"`
		}{ev, t})
		s.Flush()
	}
}

// jsonlRecord is the union read-side schema of a sink line.
type jsonlRecord struct {
	Ev      string        `json:"ev"`
	T       core.NullTime `json:"t"`
	Task    int           `json:"task"`
	Server  int           `json:"server"`
	Start   core.NullTime `json:"start"`
	End     core.NullTime `json:"end"`
	Release core.NullTime `json:"release"`
	Proc    core.NullTime `json:"proc"`
	Attempt int           `json:"attempt"`
	Lost    int           `json:"lost"`
}

// ReplayTrace reads a JSONL event stream and reconstructs the trace of the
// run: one arrival, start and completion per completed task, ordered
// exactly like trace.FromSchedule (time, then completion < arrival < start,
// then task ID). For a fault-free run the result is identical to
// trace.FromSchedule on the run's schedule (property-tested in
// internal/sim); under faults the last dispatch attempt provides the start
// and dropped tasks (no completion) are omitted.
func ReplayTrace(r io.Reader) ([]trace.Event, error) {
	type slot struct {
		arrival, start, end    core.Time
		server                 int
		hasArr, hasDis, hasCmp bool
	}
	slots := map[int]*slot{}
	at := func(task int) *slot {
		s, ok := slots[task]
		if !ok {
			s = &slot{}
			slots[task] = s
		}
		return s
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec jsonlRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("obs: events line %d: %w", line, err)
		}
		switch rec.Ev {
		case "arrival":
			s := at(rec.Task)
			s.arrival, s.hasArr = core.Time(rec.T), true
		case "dispatch":
			s := at(rec.Task)
			s.start, s.server, s.hasDis = core.Time(rec.Start), rec.Server, true
		case "complete":
			s := at(rec.Task)
			s.end, s.server, s.hasCmp = core.Time(rec.T), rec.Server, true
		case "retry", "drop", "failover", "done":
			// Not part of the schedule trace.
		default:
			return nil, fmt.Errorf("obs: events line %d: unknown event kind %q", line, rec.Ev)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading events: %w", err)
	}
	var events []trace.Event
	for task, s := range slots {
		if !s.hasArr || !s.hasDis || !s.hasCmp {
			continue // dropped or truncated: not a completed task
		}
		events = append(events,
			trace.Event{Time: s.arrival, Kind: trace.Arrival, Task: task, Machine: -1},
			trace.Event{Time: s.start, Kind: trace.Start, Task: task, Machine: s.server},
			trace.Event{Time: s.end, Kind: trace.Completion, Task: task, Machine: s.server},
		)
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].Time != events[b].Time {
			return events[a].Time < events[b].Time
		}
		if events[a].Kind != events[b].Kind {
			return events[a].Kind < events[b].Kind
		}
		return events[a].Task < events[b].Task
	})
	return events, nil
}
