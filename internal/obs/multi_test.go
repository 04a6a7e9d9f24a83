package obs

import (
	"reflect"
	"testing"
)

// hooks returns Multi's adapter over one sink: the 23 hook methods the
// engine calls, for tests that drive a sink by hand.
func hooks(s Sink) *multi { return Multi(s).(*multi) }

// recSink records every event it observes.
type recSink struct{ events []Event }

func (s *recSink) Observe(e Event) { s.events = append(s.events, e) }

func (s *recSink) kinds() []string {
	out := make([]string, len(s.events))
	for i, e := range s.events {
		out[i] = e.Kind.String()
	}
	return out
}

// allKinds is drive's event order.
var allKinds = []string{"arrival", "dispatch", "complete", "drop", "retry", "failover",
	"reject", "shed", "eject", "readmit", "brownout",
	"scale-up", "join", "scale-down", "handoff",
	"hedge", "hedge-win", "hedge-cancel",
	"breaker-open", "breaker-probe", "breaker-close", "retry-budget-drop", "done"}

// TestMultiSingleForwardsExtensions pins the single-sink case: Multi with
// one live sink still returns the adapter, so the engine's type assertions
// find all four extension interfaces and every hook reaches the sink.
func TestMultiSingleForwardsExtensions(t *testing.T) {
	s := &recSink{}
	drive(Multi(nil, s, nil)) // drive panics on a missing extension interface
	if got := s.kinds(); !reflect.DeepEqual(got, allKinds) {
		t.Fatalf("kinds = %v, want %v", got, allKinds)
	}
}

// TestMultiEventFields pins the Event each hook builds: the field table in
// Event's doc comment, one row per kind.
func TestMultiEventFields(t *testing.T) {
	s := &recSink{}
	drive(Multi(s))
	want := []Event{
		{Kind: Arrival, Task: 0, Server: -1, At: 1},
		{Kind: Dispatch, Task: 0, Server: 2, At: 1, T1: 3, T2: 5},
		{Kind: Complete, Task: 0, Server: 2, At: 5, T1: 1, T2: 2},
		{Kind: Drop, Task: 1, Server: -1, At: 6, T1: 0},
		{Kind: Retry, Task: 2, Server: -1, Aux: 1, At: 7},
		{Kind: Failover, Task: -1, Server: 3, Aux: 2, At: 8},
		{Kind: Reject, Task: 4, Server: -1, At: 9, Reason: "queue-bound"},
		{Kind: Shed, Task: 5, Server: 1, At: 10, T1: 2, Reason: "watermark"},
		{Kind: Eject, Task: -1, Server: 2, At: 11},
		{Kind: Readmit, Task: -1, Server: 2, At: 12},
		{Kind: Brownout, Task: -1, Server: -1, At: 13, Flag: true},
		{Kind: ScaleUp, Task: -1, Server: 6, At: 14, T1: 15},
		{Kind: Join, Task: -1, Server: 6, Aux: 4, At: 15},
		{Kind: ScaleDown, Task: -1, Server: 1, Aux: 3, At: 16, T1: 2},
		{Kind: Handoff, Task: 7, Server: 1, At: 16},
		{Kind: Hedge, Task: 8, Server: 3, Aux: 0, At: 16.5, T1: 17, T2: 19},
		{Kind: HedgeWin, Task: 8, Server: 3, At: 16.75, Flag: true},
		{Kind: HedgeCancel, Task: 8, Server: 0, At: 16.75, Flag: true},
		{Kind: BreakerOpen, Task: -1, Server: 4, At: 16.8},
		{Kind: BreakerProbe, Task: 9, Server: 4, At: 16.85},
		{Kind: BreakerClose, Task: -1, Server: 4, At: 16.9},
		{Kind: RetryBudgetDrop, Task: 10, Server: -1, Aux: 3, At: 16.95},
		{Kind: Done, Task: -1, Server: -1, At: 17},
	}
	if !reflect.DeepEqual(s.events, want) {
		for i := range want {
			if i >= len(s.events) || s.events[i] != want[i] {
				t.Errorf("event %d (%v): got %+v, want %+v", i, want[i].Kind, s.events[min(i, len(s.events)-1)], want[i])
			}
		}
		t.FailNow()
	}
	if got := Kind(numKinds).String(); got != "unknown" {
		t.Errorf("out-of-range kind prints %q", got)
	}
}

// TestMultiOnDoneOrdering pins the fan-out order: sinks observe the done
// event in argument order, so a sink flushed by it sees upstream aggregates
// final.
func TestMultiOnDoneOrdering(t *testing.T) {
	var order []int
	mk := func(id int) Sink {
		return funcSink(func(e Event) {
			if e.Kind == Done {
				order = append(order, id)
			}
		})
	}
	m := Multi(mk(0), nil, mk(1), mk(2))
	m.OnArrival(0, 0)
	m.OnDone(1)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("done order = %v", order)
	}
}

type funcSink func(Event)

func (f funcSink) Observe(e Event) { f(e) }
