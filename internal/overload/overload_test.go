package overload

import (
	"math"
	"strings"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/replicate"
)

func testView(m int) *View {
	return &View{
		M:          m,
		Completion: make([]core.Time, m),
		QueueLen:   make([]int, m),
	}
}

func TestViewBacklogAndUsable(t *testing.T) {
	v := testView(3)
	v.Now = 10
	v.Completion = []core.Time{8, 10, 14}
	if got := v.Backlog(0); got != 0 {
		t.Errorf("idle server backlog %v", got)
	}
	if got := v.Backlog(2); got != 4 {
		t.Errorf("backlog %v, want 4", got)
	}
	if !v.Usable(0) {
		t.Error("server with nil live/ejected vectors must be usable")
	}
	v.Live = []bool{false, true, true}
	v.Ejected = []bool{false, true, false}
	if v.Usable(0) || v.Usable(1) || !v.Usable(2) {
		t.Errorf("usable flags wrong: %v %v %v", v.Usable(0), v.Usable(1), v.Usable(2))
	}
	// eachUsable over a nil set walks all usable machines; over an explicit
	// set only its usable members.
	var seen []int
	if !v.eachUsable(nil, func(j int) { seen = append(seen, j) }) || len(seen) != 1 || seen[0] != 2 {
		t.Errorf("eachUsable(nil) visited %v", seen)
	}
	if v.eachUsable(core.NewProcSet(0, 1), func(int) {}) {
		t.Error("eachUsable over a fully unusable set reported usable machines")
	}
}

func TestQueueBoundAdmit(t *testing.T) {
	v := testView(2)
	v.QueueLen = []int{5, 1}
	q := QueueBound{MaxQueue: 3}
	if ok, _ := q.Admit(v, core.Task{}); !ok {
		t.Error("rejected although server 1 is under the bound")
	}
	if ok, reason := q.Admit(v, core.Task{Set: core.NewProcSet(0)}); ok || reason != ReasonQueueBound {
		t.Errorf("admit=%v reason=%q for a set whose only server is over the bound", ok, reason)
	}
	// Backlog bound: machine counts as overloaded only when past every
	// configured bound.
	v.Now = 0
	v.Completion = []core.Time{10, 0.5}
	qb := QueueBound{MaxQueue: 3, MaxBacklog: 2}
	if ok, _ := qb.Admit(v, core.Task{Set: core.NewProcSet(0)}); ok {
		t.Error("server over both bounds admitted")
	}
	if ok, _ := qb.Admit(v, core.Task{Set: core.NewProcSet(1)}); !ok {
		t.Error("server under the backlog bound rejected")
	}
	// Whole set down: admission defers to parking/failover.
	v.Live = []bool{false, false}
	if ok, _ := qb.Admit(v, core.Task{Set: core.NewProcSet(0, 1)}); !ok {
		t.Error("whole-set-down task must be admitted (parking decides)")
	}
}

func TestDeadlineAdmit(t *testing.T) {
	v := testView(2)
	v.Now = 5
	v.Completion = []core.Time{9, 20}
	d := DeadlineAdmit{D: 6}
	// Earliest finish: server 0 at max(9,5)+2 = 11 → flow 6 ≤ D.
	if ok, _ := d.Admit(v, core.Task{Release: 5, Proc: 2}); !ok {
		t.Error("task finishing exactly at the deadline rejected")
	}
	// Proc 3 → finish 12 → flow 7 > 6.
	if ok, reason := d.Admit(v, core.Task{Release: 5, Proc: 3}); ok || reason != ReasonDeadline {
		t.Errorf("admit=%v reason=%q for a task that cannot meet the deadline", ok, reason)
	}
	// Restricting the set to the backlogged server blows the budget.
	if ok, _ := d.Admit(v, core.Task{Release: 5, Proc: 2, Set: core.NewProcSet(1)}); ok {
		t.Error("task bound to the backlogged server admitted")
	}
	if d.Budget() != 6 {
		t.Errorf("budget %v", d.Budget())
	}
}

func TestShedPolicyNames(t *testing.T) {
	for _, p := range []ShedPolicy{DropNewest, DropOldest, DropRandom, DropLargestStretch} {
		got, err := ShedPolicyByName(p.String())
		if err != nil || got != p {
			t.Errorf("round-trip %v: got %v, err %v", p, got, err)
		}
		if !strings.HasPrefix(p.Reason(), "shed-") {
			t.Errorf("reason %q lacks the shed- prefix", p.Reason())
		}
	}
	if _, err := ShedPolicyByName("bogus"); err == nil {
		t.Error("bogus policy name parsed")
	}
}

func TestShedderRank(t *testing.T) {
	mk := func() []Candidate {
		return []Candidate{
			{ID: 0, Release: 0, Proc: 1, Pos: 0},  // oldest, stretch 10
			{ID: 1, Release: 4, Proc: 12, Pos: 1}, // stretch 0.5
			{ID: 2, Release: 8, Proc: 1, Pos: 2},  // newest, stretch 2
		}
	}
	now := core.Time(10)

	s := &Shedder{Policy: DropNewest, Watermark: 1}
	cands := mk()
	s.Rank(now, cands)
	if cands[0].ID != 2 || cands[2].ID != 0 {
		t.Errorf("newest-first order %v", ids(cands))
	}

	s = &Shedder{Policy: DropOldest, Watermark: 1}
	cands = mk()
	s.Rank(now, cands)
	if cands[0].ID != 0 || cands[2].ID != 2 {
		t.Errorf("oldest-first order %v", ids(cands))
	}

	s = &Shedder{Policy: DropLargestStretch, Watermark: 1}
	cands = mk()
	s.Rank(now, cands)
	if cands[0].ID != 0 || cands[1].ID != 2 || cands[2].ID != 1 {
		t.Errorf("largest-stretch order %v", ids(cands))
	}

	// DropRandom is deterministic per seed.
	a, b := mk(), mk()
	sa := &Shedder{Policy: DropRandom, Watermark: 1, Seed: 9}
	sb := &Shedder{Policy: DropRandom, Watermark: 1, Seed: 9}
	sa.reset()
	sb.reset()
	sa.Rank(now, a)
	sb.Rank(now, b)
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("same-seed shuffles diverge: %v vs %v", ids(a), ids(b))
		}
	}
}

func ids(cands []Candidate) []int {
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.ID
	}
	return out
}

func TestShedderDefaults(t *testing.T) {
	s := &Shedder{Watermark: 4}
	if s.EffectiveTarget() != 4 {
		t.Errorf("default target %v, want the watermark", s.EffectiveTarget())
	}
	s.Target = 2
	if s.EffectiveTarget() != 2 {
		t.Errorf("explicit target %v", s.EffectiveTarget())
	}
	var nilShedder *Shedder
	if nilShedder.Enabled() {
		t.Error("nil shedder enabled")
	}
	if (&Shedder{}).Enabled() {
		t.Error("watermark-less shedder enabled")
	}
}

func TestEjectorLifecycle(t *testing.T) {
	e := &Ejector{K: 2, Cooldown: 5, MinSamples: 3}
	e.reset(4)
	// Healthy completions everywhere, inflated ones on server 3.
	now := core.Time(0)
	ejectedAt := core.Time(-1)
	for i := 0; i < 6; i++ {
		now += 1
		for j := 0; j < 3; j++ {
			if e.Observe(j, 1.0, now) {
				t.Fatalf("healthy server %d ejected", j)
			}
		}
		if e.Observe(3, 8.0, now) && ejectedAt < 0 {
			ejectedAt = now
		}
	}
	if ejectedAt < 0 {
		t.Fatal("an 8×-inflated server was never ejected")
	}
	if e.NumEjected() != 1 || e.Ejections() != 1 || !e.EjectedVec()[3] {
		t.Fatalf("state after ejection: num=%d total=%d vec=%v", e.NumEjected(), e.Ejections(), e.EjectedVec())
	}
	// Before the cooldown: still out. After: readmitted with cleared stats.
	e.Readmit(ejectedAt+4, nil)
	if e.NumEjected() != 1 {
		t.Error("readmitted before the cooldown expired")
	}
	var readmitted []int
	e.Readmit(ejectedAt+5, func(j int) { readmitted = append(readmitted, j) })
	if e.NumEjected() != 0 || e.Readmissions() != 1 || len(readmitted) != 1 || readmitted[0] != 3 {
		t.Fatalf("readmission failed: num=%d readmits=%d got %v", e.NumEjected(), e.Readmissions(), readmitted)
	}
	if e.samples[3] != 0 || e.ewma[3] != 0 {
		t.Error("readmission must clear the server's statistics")
	}
}

func TestEjectorMaxFraction(t *testing.T) {
	e := &Ejector{K: 2, MinSamples: 1, MaxFraction: 0.5}
	e.reset(4)
	now := core.Time(1)
	for j := 0; j < 4; j++ {
		e.Observe(j, 1.0, now)
	}
	// Inflate three servers: only two (half the cluster) may go out.
	for i := 0; i < 5; i++ {
		now += 1
		for j := 1; j < 4; j++ {
			e.Observe(j, 20.0, now)
		}
	}
	if e.NumEjected() > 2 {
		t.Errorf("%d of 4 servers ejected despite MaxFraction 0.5", e.NumEjected())
	}
}

func TestEstimatorBrownout(t *testing.T) {
	e := NewEstimatorCapacity(10) // λ* = 10 tasks/unit, brownout above 9
	e.reset()
	now := core.Time(0)
	for i := 0; i < 40; i++ {
		now += 0.2 // λ = 5: healthy
		e.Observe(now)
	}
	if e.Brownout() {
		t.Fatalf("brownout at λ=%v under capacity 10", e.OfferedLoad())
	}
	if u := e.Utilization(); math.Abs(u-0.5) > 0.05 {
		t.Errorf("utilization %v, want ≈0.5", u)
	}
	for i := 0; i < 200; i++ {
		now += 0.05 // λ = 20: overload
		e.Observe(now)
	}
	if !e.Brownout() {
		t.Fatalf("no brownout at λ=%v over capacity 10", e.OfferedLoad())
	}
}

func TestNewEstimatorFromLP(t *testing.T) {
	weights := []float64{0.25, 0.25, 0.25, 0.25}
	e, err := NewEstimator(weights, replicate.Overlapping{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Uniform weights with replication: the LP sustains the full cluster.
	if math.Abs(e.Capacity-4) > 1e-6 {
		t.Errorf("capacity %v, want 4", e.Capacity)
	}

	if _, err := NewEstimator(nil, nil); err == nil {
		t.Error("empty weight vector accepted")
	}
	if _, err := NewEstimator(weights, replicate.Overlapping{K: 9}); err == nil {
		t.Error("k=9 on m=4 accepted")
	}
}

// TestEstimatorRejectsInvalidInputs: NewEstimator refuses weight vectors
// that define no capacity, and Config.Validate refuses a guard whose
// capacity is not finite and non-negative.
func TestEstimatorRejectsInvalidInputs(t *testing.T) {
	for _, c := range []struct {
		name     string
		weights  []float64
		capacity float64
	}{
		{name: "negative weight", weights: []float64{0.5, -0.1, 0.6}},
		{name: "NaN weight", weights: []float64{0.5, math.NaN(), 0.5}},
		{name: "+Inf weight", weights: []float64{0.5, math.Inf(1), 0.5}},
		{name: "all-zero weights", weights: []float64{0, 0, 0}},
		{name: "NaN capacity", capacity: math.NaN()},
		{name: "+Inf capacity", capacity: math.Inf(1)},
	} {
		var err error
		if c.weights != nil {
			_, err = NewEstimator(c.weights, replicate.Overlapping{K: 2})
		} else {
			err = (&Config{Guard: NewEstimatorCapacity(c.capacity)}).Validate(3)
		}
		if err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// allMachines is a replication strategy without processing sets: a nil
// core.ProcSet means every machine.
type allMachines struct{}

func (allMachines) Name() string              { return "all" }
func (allMachines) Set(u, m int) core.ProcSet { return nil }

func TestNewEstimatorNilSetIsAllMachines(t *testing.T) {
	// Zipf(4, 1) weights on fully shared machines: λ* = m / ΣP = 4.
	e, err := NewEstimator([]float64{0.48, 0.24, 0.16, 0.12}, allMachines{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Capacity-4) > 1e-9 {
		t.Fatalf("capacity %v, want 4", e.Capacity)
	}
}

func TestConfigValidate(t *testing.T) {
	var nilCfg *Config
	if err := nilCfg.Validate(4); err != nil {
		t.Errorf("nil config: %v", err)
	}
	nilCfg.Reset(4) // must not panic

	good := &Config{
		Admission: DeadlineAdmit{D: 5},
		Shedder:   &Shedder{Policy: DropOldest, Watermark: 3},
		Ejector:   &Ejector{},
		Guard:     NewEstimatorCapacity(8),
	}
	if err := good.Validate(4); err != nil {
		t.Errorf("good config rejected: %v", err)
	}

	bad := []*Config{
		{Admission: DeadlineAdmit{}},                                  // zero budget
		{Admission: QueueBound{}},                                     // no bound at all
		{Admission: QueueBound{MaxQueue: -1}},                         // negative bound
		{Shedder: &Shedder{Policy: ShedPolicy(42), Watermark: 1}},     // unknown policy
		{Shedder: &Shedder{Policy: DropOldest, Watermark: -1}},        // negative watermark
		{Ejector: &Ejector{K: 0.9}},                                   // K ≤ 1
		{Ejector: &Ejector{K: 2, MaxFraction: 2}},                     // fraction > 1
		{Guard: NewEstimatorCapacity(-1)},                             // negative capacity
		{Guard: &Estimator{Capacity: 1, Alpha: 7}},                    // alpha outside [0,1]
		{Guard: mustEstimator([]float64{0.5, 0.5}, replicate.None{})}, // m mismatch below
	}
	for i, cfg := range bad {
		m := 4
		if i == len(bad)-1 {
			m = 3 // guard built for 2 machines, run has 3
		}
		if err := cfg.Validate(m); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func mustEstimator(weights []float64, s replicate.Strategy) *Estimator {
	e, err := NewEstimator(weights, s)
	if err != nil {
		panic(err)
	}
	return e
}
