package audit

import (
	"math"
	"strings"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/elastic"
	"flowsched/internal/offline"
)

// membershipFixture: 4 slots, slot 3 drained at t=5. One task dispatched
// before the drain onto 3 (legal), one after (its set {2,3} remaps to {2,0}).
func membershipFixture() (*core.Instance, *elastic.Membership) {
	inst := core.NewInstance(4, []core.Task{
		{Release: 0, Proc: 1, Set: core.MustRingInterval(2, 2, 4)}, // {2,3}
		{Release: 6, Proc: 1, Set: core.MustRingInterval(2, 2, 4)},
	})
	ms := &elastic.Membership{Capacity: 4, Initial: 4, Changes: []elastic.Change{
		{At: 5, Machine: 3, Join: false, Members: 3},
	}}
	return inst, ms
}

func TestAuditMembershipEligibility(t *testing.T) {
	inst, ms := membershipFixture()
	s := core.NewSchedule(inst)
	s.Assign(0, 3, 0) // pre-drain: slot 3 is in the effective set
	s.Assign(1, 0, 6) // post-drain: walk {2,3} → {2,0}, slot 0 legal
	r := Audit(inst, s, Options{
		SkipLowerBound: true,
		Membership:     &MembershipInfo{Membership: ms, Dispatched: []core.Time{0, 6}},
	})
	if !r.Ok() {
		t.Fatalf("legal elastic schedule flagged: %v", r)
	}

	// Same schedule, but task 1 claims to have dispatched to the drained slot
	// after the drain: the membership invariant must fire.
	bad := core.NewSchedule(inst)
	bad.Assign(0, 3, 0)
	bad.Assign(1, 3, 6)
	r = Audit(inst, bad, Options{
		SkipLowerBound: true,
		Membership:     &MembershipInfo{Membership: ms, Dispatched: []core.Time{0, 6}},
	})
	found := false
	for _, v := range r.Violations {
		if v.Invariant == InvMembership && v.Task == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("dispatch to a drained slot not flagged: %v", r)
	}

	// Without the membership log the static check would (wrongly, for an
	// elastic run) reject task 1 on slot 0 — confirming the two checks are
	// genuinely different.
	r = Audit(inst, s, Options{SkipLowerBound: true})
	static := false
	for _, v := range r.Violations {
		if v.Invariant == InvEligible && v.Task == 1 {
			static = true
		}
	}
	if !static {
		t.Fatal("static audit accepted the remapped machine; fixture is too weak")
	}
}

func TestAuditMembershipMissingDispatchInstant(t *testing.T) {
	inst, ms := membershipFixture()
	s := core.NewSchedule(inst)
	s.Assign(0, 3, 0)
	s.Assign(1, 0, 6)
	r := Audit(inst, s, Options{
		SkipLowerBound: true,
		Membership:     &MembershipInfo{Membership: ms, Dispatched: []core.Time{0, core.Time(math.NaN())}},
	})
	found := false
	for _, v := range r.Violations {
		if v.Invariant == InvMembership && strings.Contains(v.Detail, "dispatch instant") {
			found = true
		}
	}
	if !found {
		t.Fatalf("executed task without a dispatch instant not flagged: %v", r)
	}
}

func TestAuditMembershipShapeChecks(t *testing.T) {
	inst, ms := membershipFixture()
	s := core.NewSchedule(inst)
	s.Assign(0, 3, 0)
	s.Assign(1, 0, 6)
	for i, mi := range []*MembershipInfo{
		{Membership: nil, Dispatched: []core.Time{0, 6}},
		{Membership: ms, Dispatched: nil},
		{Membership: ms, Dispatched: []core.Time{0}},
		{Membership: &elastic.Membership{Capacity: 7, Initial: 7}, Dispatched: []core.Time{0, 6}},
	} {
		r := Audit(inst, s, Options{SkipLowerBound: true, Membership: mi})
		if r.Ok() || r.Violations[0].Invariant != InvShape {
			t.Errorf("malformed membership info %d not rejected as shape: %v", i, r)
		}
	}
}

// TestAuditMembershipSkipsFIFOEquiv: the Proposition 1 spot-check assumes a
// fixed machine count, so an elastic audit must not run it even on an
// unrestricted instance.
func TestAuditMembershipSkipsFIFOEquiv(t *testing.T) {
	inst := core.NewInstance(2, []core.Task{
		{Release: 0, Proc: 1}, // unrestricted
		{Release: 0, Proc: 1},
	})
	ms := &elastic.Membership{Capacity: 2, Initial: 1} // only slot 0 active
	s := core.NewSchedule(inst)
	s.Assign(0, 0, 0)
	s.Assign(1, 0, 1)
	r := Audit(inst, s, Options{
		SkipLowerBound: true,
		Membership:     &MembershipInfo{Membership: ms, Dispatched: []core.Time{0, 0}},
	})
	for _, v := range r.Violations {
		if v.Invariant == InvFIFOEquiv {
			t.Fatalf("FIFO-equiv spot-check ran under a membership log: %v", r)
		}
	}
	if !r.Ok() {
		t.Fatalf("single-member serial schedule flagged: %v", r)
	}
}

// TestAuditMembershipLowerBoundSetFree: an elastic run can place two tasks
// of the static set {M4} on different slots — one before M4 drains, one on
// the remapped set after — and so beat that set's per-set bound. The audit
// must hold it only to the set-free part of the bound.
func TestAuditMembershipLowerBoundSetFree(t *testing.T) {
	inst := core.NewInstance(4, []core.Task{
		{Release: 0, Proc: 1, Set: core.NewProcSet(3)},
		{Release: 0.5, Proc: 1, Set: core.NewProcSet(3)},
	})
	ms := &elastic.Membership{Capacity: 4, Initial: 4, Changes: []elastic.Change{
		{At: 0.25, Machine: 3, Join: false, Members: 3},
	}}
	s := core.NewSchedule(inst)
	s.Assign(0, 3, 0)   // before the drain: on its static set
	s.Assign(1, 0, 0.5) // after: {M4} walks to M1
	if lb := offline.LowerBound(inst); s.MaxFlow() >= lb {
		t.Fatalf("fixture too weak: Fmax %v does not beat the per-set bound %v", s.MaxFlow(), lb)
	}
	r := Audit(inst, s, Options{
		SkipFIFOEquiv: true,
		Membership:    &MembershipInfo{Membership: ms, Dispatched: []core.Time{0, 0.5}},
	})
	if !r.Ok() {
		t.Fatalf("legal elastic schedule flagged: %v", r)
	}
	// The set-free part still binds: five unit tasks started together on
	// four slots beat the m-machine term 5/4.
	tasks := make([]core.Task, 5)
	for i := range tasks {
		tasks[i] = core.Task{Release: 0, Proc: 1}
	}
	crowded := core.NewInstance(4, tasks)
	cs := core.NewSchedule(crowded)
	for i := range tasks {
		cs.Assign(i, i%4, 0)
	}
	r = Audit(crowded, cs, Options{
		SkipFIFOEquiv: true,
		Membership: &MembershipInfo{Membership: &elastic.Membership{Capacity: 4, Initial: 4},
			Dispatched: make([]core.Time, 5)},
	})
	if !violated(r, InvLowerBound) {
		t.Fatalf("Fmax 1 below the m-machine bound 5/4 not flagged under membership: %v", r)
	}
}
