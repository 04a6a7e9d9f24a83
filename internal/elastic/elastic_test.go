package elastic

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/overload"
)

func TestConfigValidate(t *testing.T) {
	good := []*Config{
		nil,
		{},
		{Initial: 3, Min: 2, Max: 5, WarmUp: 1},
		{Script: []Event{{At: 0, Delta: 2}, {At: 5, Delta: -1}}},
		{Auto: &Autoscaler{Guard: overload.NewEstimatorCapacity(4)}},
	}
	for i, c := range good {
		if err := c.Validate(6); err != nil {
			t.Errorf("good config %d rejected: %v", i, err)
		}
	}
	bad := []*Config{
		{Initial: 7},
		{Initial: -1},
		{Min: -1},
		{Min: 4, Max: 2},
		{Max: 9},
		{Initial: 1, Min: 2},
		{Initial: 5, Max: 4},
		{WarmUp: -1},
		{WarmUp: core.Time(math.Inf(1))},
		{Script: []Event{{At: 2, Delta: 0}}},
		{Script: []Event{{At: -3, Delta: 1}}},
		{Auto: &Autoscaler{}},
		{Auto: &Autoscaler{Guard: overload.NewEstimatorCapacity(4), UpUtil: 0.4, DownUtil: 0.5}},
		{Auto: &Autoscaler{Guard: overload.NewEstimatorCapacity(4), Sustain: -1}},
		{Auto: &Autoscaler{Guard: overload.NewEstimatorCapacity(4), Step: -2}},
	}
	for i, c := range bad {
		if err := c.Validate(6); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := (&Config{}).Validate(0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := &Config{}
	if c.InitialMembers(5) != 5 || c.MinMembers() != 1 || c.MaxMembers(5) != 5 {
		t.Errorf("zero config defaults: initial=%d min=%d max=%d",
			c.InitialMembers(5), c.MinMembers(), c.MaxMembers(5))
	}
	c = &Config{Initial: 2, Min: 2, Max: 4}
	if c.InitialMembers(5) != 2 || c.MinMembers() != 2 || c.MaxMembers(5) != 4 {
		t.Error("explicit bounds not honored")
	}
}

func TestRingStart(t *testing.T) {
	m := 6
	cases := []struct {
		set  core.ProcSet
		want int
	}{
		{nil, -1},
		{core.ProcSet{}, 0},
		{core.MustRingInterval(4, 3, m), 4}, // wraps: {4,5,0}
		{core.MustRingInterval(1, 2, m), 1},
		{core.MustRingInterval(0, m, m), 0}, // full ring
		{core.NewProcSet(0, 2, 4), 0},       // non-interval: min
	}
	for i, c := range cases {
		if got := RingStart(c.set, m); got != c.want {
			t.Errorf("case %d: RingStart(%v) = %d, want %d", i, c.set, got, c.want)
		}
	}
}

func TestEffectiveWalk(t *testing.T) {
	active := []bool{true, false, true, true, false, true} // members {0,2,3,5}
	cases := []struct {
		start, k int
		want     core.ProcSet
	}{
		{4, 3, core.ProcSet{0, 2, 5}},     // walk 4→5→0→…: {5,0,2} sorted
		{1, 2, core.ProcSet{2, 3}},        // walk 1→2→3
		{-1, 6, core.ProcSet{0, 2, 3, 5}}, // unrestricted: all actives
		{0, 1, core.ProcSet{0}},
		{4, 0, core.ProcSet{}},
	}
	for i, c := range cases {
		got := Effective(active, c.start, c.k, nil)
		if !reflect.DeepEqual(append(core.ProcSet{}, got...), c.want) {
			t.Errorf("case %d: Effective(start=%d,k=%d) = %v, want %v", i, c.start, c.k, got, c.want)
		}
	}
}

// TestEffectiveFullMembershipIsStaticInterval: with every slot active the
// walk reproduces the static ring interval exactly — the identity the
// full-membership engine equivalence test relies on.
func TestEffectiveFullMembershipIsStaticInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(10)
		active := make([]bool, m)
		for j := range active {
			active[j] = true
		}
		k := 1 + rng.Intn(m)
		u := rng.Intn(m)
		set := core.MustRingInterval(u, k, m)
		got := Effective(active, RingStart(set, m), k, nil)
		if !set.Equal(core.NewProcSet(got...)) {
			t.Fatalf("m=%d u=%d k=%d: walk %v ≠ static %v", m, u, k, got, set)
		}
	}
}

// TestEffectiveSorted: the walk output is always ascending (ProcSet's binary
// searches require it) and at most min(k, members) long.
func TestEffectiveSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 500; trial++ {
		m := 1 + rng.Intn(12)
		active := make([]bool, m)
		members := 0
		for j := range active {
			if rng.Intn(2) == 0 {
				active[j] = true
				members++
			}
		}
		k := rng.Intn(m + 2)
		start := rng.Intn(m)
		got := Effective(active, start, k, nil)
		want := k
		if members < want {
			want = members
		}
		if len(got) != want {
			t.Fatalf("len %d, want %d (k=%d members=%d)", len(got), want, k, members)
		}
		for x := 1; x < len(got); x++ {
			if got[x] <= got[x-1] {
				t.Fatalf("unsorted walk %v", got)
			}
		}
		for _, j := range got {
			if !active[j] {
				t.Fatalf("inactive slot %d in %v", j, got)
			}
		}
	}
}

func TestMembershipReplay(t *testing.T) {
	ms := &Membership{Capacity: 6, Initial: 3, Changes: []Change{
		{At: 2, Machine: 3, Join: true, Members: 4},
		{At: 5, Machine: 3, Join: false, Members: 3},
		{At: 5, Machine: 2, Join: false, Members: 2},
	}}
	if got := ms.MembersAt(0); got != 3 {
		t.Errorf("MembersAt(0) = %d", got)
	}
	if got := ms.MembersAt(2); got != 4 {
		t.Errorf("MembersAt(2) = %d (change at exactly t included)", got)
	}
	if got := ms.MembersAt(10); got != 2 {
		t.Errorf("MembersAt(10) = %d", got)
	}
	if got := ms.Final(); got != 2 {
		t.Errorf("Final() = %d", got)
	}
	// Machine-hours: 3·2 + 4·3 + 2·5 = 28 over horizon 10.
	if got := ms.MachineHours(10); got != 28 {
		t.Errorf("MachineHours(10) = %v, want 28", got)
	}
	// Changes beyond the horizon are ignored.
	if got := ms.MachineHours(4); got != 3*2+4*2 {
		t.Errorf("MachineHours(4) = %v, want 14", got)
	}
}

func TestMembershipEligibleBothSidesOfInstant(t *testing.T) {
	ms := &Membership{Capacity: 4, Initial: 4, Changes: []Change{
		{At: 5, Machine: 3, Join: false, Members: 3},
	}}
	set := core.MustRingInterval(2, 2, 4) // static {2,3}
	// Before the drain, 3 is eligible; after, the walk yields {2,0}.
	if !ms.Eligible(set, 4, 3) {
		t.Error("slot 3 ineligible before its drain")
	}
	if !ms.Eligible(set, 6, 0) || ms.Eligible(set, 6, 3) {
		t.Error("post-drain walk should remap {2,3} → {2,0}")
	}
	// At the drain instant both sides are accepted (event-queue tie order).
	if !ms.Eligible(set, 5, 3) || !ms.Eligible(set, 5, 0) {
		t.Error("at the change instant, both the old and new effective sets are valid")
	}
}

// TestMembershipEligibleMatchesSnapshot: on random histories of 15 and 100
// slots, Eligible accepts j exactly when j lies in the effective set of a
// freshly built snapshot on either side of the instant, and on 15 slots it
// allocates nothing.
func TestMembershipEligibleMatchesSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, capacity := range []int{15, 100} {
		ms := &Membership{Capacity: capacity, Initial: capacity / 2}
		members := ms.Initial
		for c := 0; c < 40; c++ {
			j := rng.Intn(capacity)
			join := rng.Intn(2) == 0
			ms.Changes = append(ms.Changes, Change{At: core.Time(c / 2), Machine: j, Join: join, Members: members})
		}
		for trial := 0; trial < 500; trial++ {
			var set core.ProcSet
			if rng.Intn(4) > 0 {
				set = core.MustRingInterval(rng.Intn(capacity), 1+rng.Intn(capacity), capacity)
			}
			at, j := core.Time(rng.Intn(24)), rng.Intn(capacity)
			want := false
			for _, strict := range []bool{false, true} {
				active := make([]bool, capacity)
				k := ms.fillActive(active, at, strict)
				if set != nil {
					k = len(set)
				}
				eff := Effective(active, RingStart(set, capacity), k, nil)
				want = want || (len(eff) > 0 && eff.Contains(j))
			}
			if got := ms.Eligible(set, at, j); got != want {
				t.Fatalf("capacity %d: Eligible(%v, %v, %d) = %v, snapshot says %v", capacity, set, at, j, got, want)
			}
		}
	}
	ms := &Membership{Capacity: 15, Initial: 12, Changes: []Change{{At: 3, Machine: 4, Members: 11}}}
	set := core.MustRingInterval(13, 3, 15)
	if allocs := testing.AllocsPerRun(20, func() { ms.Eligible(set, 3, 1) }); allocs != 0 {
		t.Errorf("Eligible allocated %v times per call on 15 slots", allocs)
	}
}

func TestMembershipJSONRoundTrip(t *testing.T) {
	ms := &Membership{Capacity: 5, Initial: 2, Changes: []Change{
		{At: 1.5, Machine: 2, Join: true, Members: 3},
	}}
	data, err := json.Marshal(ms)
	if err != nil {
		t.Fatal(err)
	}
	var back Membership
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*ms, back) {
		t.Fatalf("round trip: %+v ≠ %+v", back, *ms)
	}
}

// TestControllerHysteresis drives the controller with a hand-built load
// profile: sustained overload scales up (after Sustain, honoring Cooldown),
// sustained idleness scales down, and a single spike does nothing.
func TestControllerHysteresis(t *testing.T) {
	guard := overload.NewEstimatorCapacity(8)
	cfg := &Config{Auto: &Autoscaler{
		Guard: guard, MachineCapacity: 1,
		UpUtil: 0.9, DownUtil: 0.4,
		Sustain: 1, Cooldown: 2,
	}}
	ctrl := NewController(cfg, 8)
	if ctrl == nil {
		t.Fatal("controller nil with an autoscaler configured")
	}
	// No samples yet → hold.
	if d := ctrl.Decide(0, 2, 0, 1, 8); d != 0 {
		t.Fatalf("decision %d before any load estimate", d)
	}
	// Feed ~4 arrivals per unit: far above 0.9·1·2.
	now := core.Time(0)
	var ups, downs int
	for i := 0; i < 40; i++ {
		now += 0.25
		guard.Observe(now)
		switch d := ctrl.Decide(now, 2+ups, 0, 1, 8); {
		case d > 0:
			ups += d
		case d < 0:
			downs -= d
		}
	}
	if ups == 0 {
		t.Fatal("sustained 2× overload never scaled up")
	}
	if downs != 0 {
		t.Fatalf("%d scale-downs during overload", downs)
	}
	// Cooldown: decisions are at least Cooldown apart, so 10 units of
	// overload can commit at most ~1 + 10/2 scale-ups.
	if ups > 6 {
		t.Fatalf("%d scale-ups in 10 units despite cooldown 2", ups)
	}

	// Now go idle: ~0.1 arrivals per unit against members+ups machines.
	members := 2 + ups
	for i := 0; i < 30 && downs == 0; i++ {
		now += 10
		guard.Observe(now)
		if d := ctrl.Decide(now, members, 0, 1, 8); d < 0 {
			downs -= d
			members += d
		}
	}
	if downs == 0 {
		t.Fatal("sustained idleness never scaled down")
	}
	if members < 1 {
		t.Fatalf("scaled below the floor: %d", members)
	}
}

// TestControllerClampsToBounds: decisions clamp against min/max instead of
// overshooting.
func TestControllerClampsToBounds(t *testing.T) {
	guard := overload.NewEstimatorCapacity(8)
	cfg := &Config{Auto: &Autoscaler{
		Guard: guard, MachineCapacity: 1, Step: 5,
	}}
	ctrl := NewController(cfg, 8)
	now := core.Time(0)
	for i := 0; i < 10; i++ {
		now += 0.1
		guard.Observe(now)
	}
	if d := ctrl.Decide(now, 3, 0, 1, 4); d != 1 {
		t.Fatalf("step 5 against max 4 with 3 members: delta %d, want 1", d)
	}
}

func TestNewControllerNilWithoutAuto(t *testing.T) {
	if NewController(&Config{}, 4) != nil || NewController(nil, 4) != nil {
		t.Error("controller should be nil without an autoscaler")
	}
}

// TestControllerResetMatchesNew: sim's run arena keeps one Controller value
// across runs and reinitializes it with Reset; the result must be exactly
// what NewController builds, even after the controller accumulated hysteresis
// state, and for a different config/capacity than the previous run's.
func TestControllerResetMatchesNew(t *testing.T) {
	mk := func(cap float64, up float64) *Config {
		return &Config{
			Min: 2,
			Auto: &Autoscaler{
				Guard:           overload.NewEstimatorCapacity(cap),
				MachineCapacity: 1, UpUtil: up, DownUtil: 0.4,
				Sustain: 1, Cooldown: 2, Step: 2,
			},
		}
	}
	cfgA, cfgB := mk(10, 0.9), mk(6, 0.8)

	var c Controller
	if c.Reset(nil, 8) || c.Reset(&Config{}, 8) {
		t.Fatal("Reset must report false without an autoscaler")
	}
	if !reflect.DeepEqual(c, Controller{}) {
		t.Fatal("a false Reset must leave the controller untouched")
	}

	if !c.Reset(cfgA, 8) {
		t.Fatal("Reset reported no autoscaler for a config with one")
	}
	if want := NewController(cfgA, 8); !reflect.DeepEqual(&c, want) {
		t.Fatalf("Reset(cfgA, 8) = %+v, NewController = %+v", c, *want)
	}

	// Accumulate streak state, then re-target a different config/capacity.
	for i := 0; i < 20; i++ {
		cfgA.Auto.Guard.Observe(core.Time(i) * 0.05)
		c.Decide(core.Time(i)*0.05, 4, 0, 2, 8)
	}
	if !c.Reset(cfgB, 5) {
		t.Fatal("Reset reported no autoscaler for cfgB")
	}
	if want := NewController(cfgB, 5); !reflect.DeepEqual(&c, want) {
		t.Fatalf("used controller after Reset(cfgB, 5) = %+v, NewController = %+v", c, *want)
	}
}
