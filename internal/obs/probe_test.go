package obs

import (
	"reflect"
	"strings"
	"testing"
)

func TestMulti(t *testing.T) {
	if Multi() != nil {
		t.Error("Multi() != nil")
	}
	if Multi(nil, nil) != nil {
		t.Error("Multi(nil, nil) != nil")
	}
	a, b := &recSink{}, &recSink{}
	m := Multi(a, nil, b)
	m.OnArrival(0, 0)
	m.OnDispatch(0, 0, 0, 0, 1)
	m.OnComplete(0, 0, 0, 1, 1)
	m.OnDrop(1, 0, 1)
	m.OnRetry(2, 1, 1)
	m.OnFailover(0, 1, 3)
	m.OnDone(1)
	want := []string{"arrival", "dispatch", "complete", "drop", "retry", "failover", "done"}
	for _, s := range []*recSink{a, b} {
		if got := s.kinds(); !reflect.DeepEqual(got, want) {
			t.Errorf("fan-out events = %v, want %v", got, want)
		}
	}
}

func TestCounters(t *testing.T) {
	var c Counters
	h := hooks(&c)
	h.OnArrival(0, 0)
	h.OnArrival(1, 1)
	h.OnDispatch(0, 0, 0, 0, 1)
	h.OnDispatch(1, 1, 1, 1, 2)
	h.OnDispatch(1, 0, 3, 3, 4) // failover re-dispatch
	h.OnComplete(0, 0, 0, 1, 1)
	h.OnFailover(1, 2, 1)
	h.OnRetry(1, 1, 2)
	h.OnComplete(1, 0, 1, 1, 4)
	if c.Arrivals != 2 || c.Dispatches != 3 || c.Completions != 2 ||
		c.Retries != 1 || c.Failovers != 1 || c.Lost != 1 || c.Drops != 0 {
		t.Fatalf("counters = %+v", c)
	}
	var b strings.Builder
	if err := c.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE flowsched_arrivals_total counter",
		"flowsched_arrivals_total 2",
		"flowsched_dispatches_total 3",
		"flowsched_completions_total 2",
		"flowsched_retries_total 1",
		"flowsched_failovers_total 1",
		"flowsched_lost_tasks_total 1",
		"flowsched_drops_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}
