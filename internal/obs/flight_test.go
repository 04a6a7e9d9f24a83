package obs

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"unsafe"
)

// drive pushes one event of every kind through Multi's adapter (23 hooks),
// reaching the extension hooks by type assertion as the engine does.
func drive(p Probe) {
	ov, ms := p.(OverloadObserver), p.(MembershipObserver)
	hd, rs := p.(HedgeObserver), p.(ResilienceObserver)
	p.OnArrival(0, 1)
	p.OnDispatch(0, 2, 1, 3, 5)
	p.OnComplete(0, 2, 1, 2, 5)
	p.OnDrop(1, 0, 6)
	p.OnRetry(2, 1, 7)
	p.OnFailover(3, 8, 2)
	ov.OnReject(4, 9, "queue-bound")
	ov.OnShed(5, 1, 2, 10, "watermark")
	ov.OnEject(2, 11)
	ov.OnReadmit(2, 12)
	ov.OnBrownout(13, true)
	ms.OnScaleUp(6, 14, 15)
	ms.OnJoin(6, 15, 4)
	ms.OnScaleDown(1, 16, 3, 2)
	ms.OnHandoff(7, 1, 16)
	hd.OnHedge(8, 0, 3, 16.5, 17, 19)
	hd.OnHedgeWin(8, 3, true, 16.75)
	hd.OnHedgeCancel(8, 0, 16.75, true)
	rs.OnBreakerOpen(4, 16.8)
	rs.OnBreakerProbe(4, 9, 16.85)
	rs.OnBreakerClose(4, 16.9)
	rs.OnRetryBudgetDrop(10, 3, 16.95)
	p.OnDone(17)
}

func TestFlightRecorderRingWrap(t *testing.T) {
	r := NewFlightRecorder(8)
	h := hooks(r)
	for i := 0; i < 20; i++ {
		h.OnArrival(i, float64(i))
	}
	if r.Len() != 8 || r.Dropped() != 12 {
		t.Fatalf("Len=%d Dropped=%d, want 8/12", r.Len(), r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("Events() returned %d", len(evs))
	}
	for i, ev := range evs {
		if want := 12 + i; ev.Task != want || float64(ev.T) != float64(want) {
			t.Fatalf("events[%d] = task %d t=%v, want task %d (oldest-first after wrap)",
				i, ev.Task, ev.T, want)
		}
	}
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 || len(r.Events()) != 0 {
		t.Fatalf("Reset left Len=%d Dropped=%d", r.Len(), r.Dropped())
	}
}

func TestFlightRecorderDefaultSize(t *testing.T) {
	r := NewFlightRecorder(0)
	h := hooks(r)
	for i := 0; i < DefaultFlightSize+5; i++ {
		h.OnArrival(i, 0)
	}
	if r.Len() != DefaultFlightSize || r.Dropped() != 5 {
		t.Fatalf("Len=%d Dropped=%d", r.Len(), r.Dropped())
	}
}

func TestFlightRecorderAllKindsRoundTrip(t *testing.T) {
	r := NewFlightRecorder(64)
	drive(Multi(r))
	if r.Len() != 23 {
		t.Fatalf("recorded %d events, want 23", r.Len())
	}
	kinds := []string{"arrival", "dispatch", "complete", "drop", "retry", "failover",
		"reject", "shed", "eject", "readmit", "brownout",
		"scale-up", "join", "scale-down", "handoff",
		"hedge", "hedge-win", "hedge-cancel",
		"breaker-open", "breaker-probe", "breaker-close", "retry-budget-drop", "done"}
	for i, ev := range r.Events() {
		if ev.Ev != kinds[i] {
			t.Fatalf("events[%d].Ev = %q, want %q", i, ev.Ev, kinds[i])
		}
	}

	var dump bytes.Buffer
	if err := r.WriteJSONL(&dump); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(dump.String(), "NaN") {
		t.Fatalf("NaN leaked into the dump:\n%s", dump.String())
	}
	back, err := ReadFlightEvents(bytes.NewReader(dump.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// NaN sentinels defeat ==; compare through the canonical serialized form.
	var dump2 bytes.Buffer
	if err := WriteFlightEvents(&dump2, back); err != nil {
		t.Fatal(err)
	}
	if dump.String() != dump2.String() {
		t.Fatalf("round trip changed the dump:\n--- wrote\n%s--- read back\n%s",
			dump.String(), dump2.String())
	}
}

func TestFlightRecorderTaskEvents(t *testing.T) {
	r := NewFlightRecorder(64)
	drive(Multi(r))
	evs := r.TaskEvents(0)
	if len(evs) != 3 || evs[0].Ev != "arrival" || evs[1].Ev != "dispatch" || evs[2].Ev != "complete" {
		t.Fatalf("task 0 events = %+v", evs)
	}
	// Server-only events (eject, failover) name no task and must not bleed
	// into any task's history.
	for _, ev := range r.TaskEvents(3) {
		if ev.Ev == "failover" {
			t.Fatalf("failover (server event) attributed to task 3: %+v", ev)
		}
	}
	if got := r.TaskEvents(7); len(got) != 1 || got[0].Ev != "handoff" {
		t.Fatalf("task 7 events = %+v", got)
	}
}

func TestReadFlightEventsErrors(t *testing.T) {
	if _, err := ReadFlightEvents(strings.NewReader(`{"t":1}` + "\n")); err == nil {
		t.Error("missing event kind not rejected")
	}
	if _, err := ReadFlightEvents(strings.NewReader("{broken\n")); err == nil {
		t.Error("malformed JSON not rejected")
	}
	evs, err := ReadFlightEvents(strings.NewReader("\n\n"))
	if err != nil || len(evs) != 0 {
		t.Errorf("blank lines: evs=%v err=%v", evs, err)
	}
}

var updateFlight = flag.Bool("update-flight", false, "rewrite "+flightGoldenFile+" from the current recorder")

const flightGoldenFile = "testdata/flight_golden.txt"

// renderFlight writes one recorder state for the golden file: its size
// counters, Events() in Go syntax, TaskEvents for each given task and the
// WriteJSONL dump.
func renderFlight(t *testing.T, b *bytes.Buffer, size int, r *FlightRecorder, tasks ...int) {
	t.Helper()
	fmt.Fprintf(b, "## ring %d: Len=%d Dropped=%d\n# Events()\n", size, r.Len(), r.Dropped())
	for _, ev := range r.Events() {
		fmt.Fprintf(b, "%+v\n", ev)
	}
	for _, task := range tasks {
		fmt.Fprintf(b, "# TaskEvents(%d)\n", task)
		for _, ev := range r.TaskEvents(task) {
			fmt.Fprintf(b, "%+v\n", ev)
		}
	}
	b.WriteString("# WriteJSONL\n")
	if err := r.WriteJSONL(b); err != nil {
		t.Fatal(err)
	}
}

// TestFlightRecorderGolden pins the recorder's output byte for byte: every
// one of the 23 event kinds once in a ring that holds them all, then the
// same stream through rings of 8 and 5 that it wraps, so the oldest-first
// order after wrap-around is pinned too. TestEngineParityDigests covers the
// kinds the engine emits; this covers the rest (brownout, retry-budget-drop,
// ...). Task -1 selects the events that name no task.
func TestFlightRecorderGolden(t *testing.T) {
	var b bytes.Buffer
	for _, size := range []int{32, 8, 5} {
		r := NewFlightRecorder(size)
		drive(Multi(r))
		renderFlight(t, &b, size, r, 0, 8, 9, -1)
	}
	if *updateFlight {
		if err := os.WriteFile(flightGoldenFile, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(flightGoldenFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update-flight)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("flight recorder output differs from %s:\n--- got\n%s--- want\n%s", flightGoldenFile, b.String(), want)
	}
}

// TestFlightRecorderHookAllocs pins the recorder's hot path: every hook
// builds one Event that the recorder copies into its ring, so recording
// allocates nothing, and an Event stays within 72 bytes.
func TestFlightRecorderHookAllocs(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size > 72 {
		t.Errorf("Event is %d bytes, want at most 72", size)
	}
	p := Multi(NewFlightRecorder(16))
	if allocs := testing.AllocsPerRun(100, func() { drive(p) }); allocs != 0 {
		t.Fatalf("recording every hook once allocated %.1f times, want 0", allocs)
	}
}
