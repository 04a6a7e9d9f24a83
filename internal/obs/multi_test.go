package obs

import (
	"testing"

	"flowsched/internal/core"
)

// extProbe records every hook it sees, including the extension interfaces.
type extProbe struct {
	BaseProbe
	events []string
}

func (p *extProbe) OnDone(makespan core.Time)                  { p.events = append(p.events, "done") }
func (p *extProbe) OnReject(task int, at core.Time, r string)  { p.events = append(p.events, "reject") }
func (p *extProbe) OnShed(t, s int, r, at core.Time, x string) { p.events = append(p.events, "shed") }
func (p *extProbe) OnEject(server int, at core.Time)           { p.events = append(p.events, "eject") }
func (p *extProbe) OnReadmit(server int, at core.Time)         { p.events = append(p.events, "readmit") }
func (p *extProbe) OnBrownout(at core.Time, active bool)       { p.events = append(p.events, "brownout") }
func (p *extProbe) OnScaleUp(m int, at, ready core.Time)       { p.events = append(p.events, "scale-up") }
func (p *extProbe) OnJoin(m int, at core.Time, members int)    { p.events = append(p.events, "join") }
func (p *extProbe) OnScaleDown(m int, at core.Time, mm, h int) {
	p.events = append(p.events, "scale-down")
}
func (p *extProbe) OnHandoff(task, from int, at core.Time) { p.events = append(p.events, "handoff") }

// fireExtensions drives every extension hook through the simulator's
// type-assert pattern, exactly as the engine (sim.Arena.Run) does.
func fireExtensions(p Probe) (overload, membership bool) {
	if ov, ok := p.(OverloadObserver); ok {
		overload = true
		ov.OnReject(0, 1, "r")
		ov.OnShed(1, 0, 0, 2, "s")
		ov.OnEject(0, 3)
		ov.OnReadmit(0, 4)
		ov.OnBrownout(5, true)
	}
	if ms, ok := p.(MembershipObserver); ok {
		membership = true
		ms.OnScaleUp(1, 6, 7)
		ms.OnJoin(1, 7, 3)
		ms.OnScaleDown(2, 8, 2, 1)
		ms.OnHandoff(3, 2, 8)
	}
	return
}

var allExtEvents = []string{"reject", "shed", "eject", "readmit", "brownout",
	"scale-up", "join", "scale-down", "handoff"}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMultiSingleForwardsExtensions pins the kept[0] fast path: Multi with
// one live probe returns it unwrapped, so its extension interfaces survive
// the simulator's type assertion.
func TestMultiSingleForwardsExtensions(t *testing.T) {
	p := &extProbe{}
	m := Multi(nil, p, nil)
	if m != Probe(p) {
		t.Fatal("single live probe not returned unwrapped")
	}
	ov, ms := fireExtensions(m)
	if !ov || !ms {
		t.Fatalf("extension interfaces lost through Multi: overload=%v membership=%v", ov, ms)
	}
	if !eqStrings(p.events, allExtEvents) {
		t.Fatalf("events = %v", p.events)
	}
}

// TestMultiForwardsExtensionsSelectively checks that a fan-out forwards each
// extension hook only to the members that implement it — a plain Probe next
// to an extended one must not break the stream.
func TestMultiForwardsExtensionsSelectively(t *testing.T) {
	ext := &extProbe{}
	plain := &countingProbe{}
	m := Multi(plain, ext)
	ov, ms := fireExtensions(m)
	if !ov || !ms {
		t.Fatalf("multi dropped extension interfaces: overload=%v membership=%v", ov, ms)
	}
	if !eqStrings(ext.events, allExtEvents) {
		t.Fatalf("extended member events = %v", ext.events)
	}
	if len(plain.events) != 0 {
		t.Fatalf("plain member saw extension traffic: %v", plain.events)
	}
}

// TestMultiNested pins Multi(Multi(...), ...): base and extension hooks
// reach every leaf through the inner fan-out.
func TestMultiNested(t *testing.T) {
	a, b, c := &extProbe{}, &extProbe{}, &extProbe{}
	m := Multi(Multi(a, b), c)
	m.OnDone(1)
	fireExtensions(m)
	want := append([]string{"done"}, allExtEvents...)
	for i, p := range []*extProbe{a, b, c} {
		if !eqStrings(p.events, want) {
			t.Fatalf("leaf %d events = %v, want %v", i, p.events, want)
		}
	}
}

// TestMultiOnDoneOrdering pins the fan-out order: members observe OnDone in
// registration order, so a sink flushed by OnDone sees upstream aggregates
// final.
func TestMultiOnDoneOrdering(t *testing.T) {
	var order []int
	mk := func(id int) Probe {
		return &funcProbe{onDone: func() { order = append(order, id) }}
	}
	m := Multi(mk(0), nil, mk(1), mk(2))
	m.OnDone(1)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("OnDone order = %v", order)
	}
}

type funcProbe struct {
	BaseProbe
	onDone func()
}

func (p *funcProbe) OnDone(makespan core.Time) { p.onDone() }
