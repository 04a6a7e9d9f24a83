package obs

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/trace"
)

// TestJSONLSinkSchema: each hook writes one line keyed by "ev" with the
// documented fields.
func TestJSONLSinkSchema(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	h := hooks(s)
	h.OnArrival(3, 1.5)
	h.OnDispatch(3, 2, 1.5, 1.5, 4.5)
	h.OnComplete(3, 2, 1.5, 3, 4.5)
	h.OnRetry(3, 1, 5)
	h.OnDrop(3, 1.5, 6)
	h.OnFailover(2, 5, 4)
	h.OnDone(7.25)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	want := []string{
		`{"ev":"arrival","t":1.5,"task":3}`,
		`{"ev":"dispatch","t":1.5,"task":3,"server":2,"start":1.5,"end":4.5}`,
		`{"ev":"complete","t":4.5,"task":3,"server":2,"release":1.5,"proc":3}`,
		`{"ev":"retry","t":5,"task":3,"attempt":1}`,
		`{"ev":"drop","t":6,"task":3,"release":1.5}`,
		`{"ev":"failover","t":5,"server":2,"lost":4}`,
		`{"ev":"done","t":7.25}`,
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines:\n%s", len(lines), buf.String())
	}
	for i, w := range want {
		if lines[i] != w {
			t.Errorf("line %d = %s, want %s", i, lines[i], w)
		}
	}
}

func TestJSONLSinkStickyError(t *testing.T) {
	s := NewJSONLSink(failWriter{})
	h := hooks(s)
	for i := 0; i < 20000; i++ { // exceed the buffer so a flush is forced
		h.OnArrival(i, 0)
	}
	h.OnDone(1)
	if s.Err() == nil {
		t.Fatal("write error not surfaced")
	}
	if !errors.Is(s.Flush(), errShort) {
		t.Errorf("Flush = %v, want the sticky first error", s.Flush())
	}
}

var errShort = errors.New("short write")

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errShort }

// TestReplayTraceHandStream: replay orders like trace.FromSchedule and skips
// incomplete tasks.
func TestReplayTraceHandStream(t *testing.T) {
	in := strings.Join([]string{
		`{"ev":"arrival","t":0,"task":0}`,
		`{"ev":"dispatch","t":0,"task":0,"server":1,"start":0,"end":2}`,
		`{"ev":"complete","t":2,"task":0,"server":1,"release":0,"proc":2}`,
		`{"ev":"arrival","t":2,"task":1}`, // ties completion at t=2: completion sorts first
		`{"ev":"dispatch","t":2,"task":1,"server":0,"start":2,"end":3}`,
		`{"ev":"complete","t":3,"task":1,"server":0,"release":2,"proc":1}`,
		`{"ev":"arrival","t":4,"task":2}`, // dropped: no dispatch/complete
		`{"ev":"drop","t":5,"task":2,"release":4}`,
		`{"ev":"done","t":3}`,
		``,
	}, "\n")
	events, err := ReplayTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []trace.Event{
		{Time: 0, Kind: trace.Arrival, Task: 0, Machine: -1},
		{Time: 0, Kind: trace.Start, Task: 0, Machine: 1},
		{Time: 2, Kind: trace.Completion, Task: 0, Machine: 1},
		{Time: 2, Kind: trace.Arrival, Task: 1, Machine: -1},
		{Time: 2, Kind: trace.Start, Task: 1, Machine: 0},
		{Time: 3, Kind: trace.Completion, Task: 1, Machine: 0},
	}
	if len(events) != len(want) {
		t.Fatalf("got %d events %+v, want %d", len(events), events, len(want))
	}
	for i, w := range want {
		if events[i] != w {
			t.Errorf("event %d = %+v, want %+v", i, events[i], w)
		}
	}
}

func TestReplayTraceErrors(t *testing.T) {
	if _, err := ReplayTrace(strings.NewReader("{not json\n")); err == nil {
		t.Error("malformed line accepted")
	}
	if _, err := ReplayTrace(strings.NewReader(`{"ev":"warp","t":1}` + "\n")); err == nil {
		t.Error("unknown event kind accepted")
	}
	events, err := ReplayTrace(strings.NewReader(""))
	if err != nil || len(events) != 0 {
		t.Errorf("empty stream: %v, %v", events, err)
	}
}

// TestJSONLSinkNonFiniteInstants is the satellite regression for the NaN-safe
// boundary: the engine uses NaN deliberately (a never-dispatched task has no
// dispatch instant), and a sink fed such a sentinel must keep writing — one
// null field — instead of poisoning the sticky error and silently dropping
// the rest of the log, which is what encoding/json's non-finite rejection
// did. The stream must also still replay.
func TestJSONLSinkNonFiniteInstants(t *testing.T) {
	nan := core.Time(math.NaN())
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	h := hooks(s)
	h.OnArrival(0, 0)
	h.OnDispatch(0, 1, 0, 0, 2)
	h.OnComplete(0, 1, 0, 2, 2)
	h.OnArrival(1, 1)
	h.OnDrop(1, 1, nan) // dropped with no final instant
	h.OnDone(nan)       // e.g. a run with no completed work
	if err := s.Flush(); err != nil {
		t.Fatalf("non-finite instants poisoned the sink: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, `"t":null`) {
		t.Fatalf("NaN instant did not encode as null:\n%s", out)
	}
	events, err := ReplayTrace(strings.NewReader(out))
	if err != nil {
		t.Fatalf("replaying a log with null instants: %v", err)
	}
	if len(events) != 3 { // arrival, start, completion — a dropped task yields no trace events
		t.Fatalf("replayed %d events, want 3: %+v", len(events), events)
	}
}
