package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/elastic"
	"flowsched/internal/faults"
	"flowsched/internal/hedge"
	"flowsched/internal/obs"
	"flowsched/internal/overload"
)

// hedgeCountProbe counts effective completions per task (the
// exactly-one-effective-completion invariant) and the hedge event stream.
type hedgeCountProbe struct {
	completions []int
	hedges      int
	wins        int
	winsByCopy  int
	cancels     int
}

func newHedgeCountProbe(n int) *hedgeCountProbe {
	return &hedgeCountProbe{completions: make([]int, n)}
}

func (p *hedgeCountProbe) Observe(e obs.Event) {
	switch e.Kind {
	case obs.Complete:
		p.completions[e.Task]++
	case obs.Hedge:
		p.hedges++
	case obs.HedgeWin:
		p.wins++
		if e.Flag {
			p.winsByCopy++
		}
	case obs.HedgeCancel:
		p.cancels++
	}
}

// checkHedgeResolution asserts the hedge ledger: every issued copy resolved
// as exactly one of win / cancel / revoke, and every task completed at most
// once (and exactly once unless excluded).
func checkHedgeResolution(t *testing.T, inst *core.Instance, em *ElasticMetrics, p *hedgeCountProbe) {
	t.Helper()
	if got := em.HedgeWinsCopy + em.HedgesCancelled + em.HedgesRevoked; got != em.HedgesIssued {
		t.Fatalf("hedge resolution leak: issued %d, wins(copy) %d + cancelled %d + revoked %d = %d",
			em.HedgesIssued, em.HedgeWinsCopy, em.HedgesCancelled, em.HedgesRevoked, got)
	}
	if p.hedges != em.HedgesIssued {
		t.Fatalf("probe saw %d OnHedge, metrics counted %d issued", p.hedges, em.HedgesIssued)
	}
	if p.winsByCopy != em.HedgeWinsCopy {
		t.Fatalf("probe saw %d copy wins, metrics counted %d", p.winsByCopy, em.HedgeWinsCopy)
	}
	if p.wins != em.HedgeWinsCopy+em.HedgeWinsPrimary {
		t.Fatalf("probe saw %d OnHedgeWin, metrics counted %d", p.wins, em.HedgeWinsCopy+em.HedgeWinsPrimary)
	}
	for i, c := range p.completions {
		if c > 1 {
			t.Fatalf("task %d completed %d times: a hedge produced a duplicate effective completion", i, c)
		}
		excluded := em.Dropped[i] ||
			(em.Rejected != nil && em.Rejected[i]) || (em.Shed != nil && em.Shed[i]) ||
			(em.Parked[i] && c == 0) // parked forever
		if c == 0 && !excluded {
			t.Fatalf("task %d never completed and was not dropped/rejected/shed: a hedge lost it", i)
		}
		if em.HedgeWonByCopy[i] && !em.Hedged[i] {
			t.Fatalf("task %d won by copy but was never hedged", i)
		}
	}
	if em.DuplicateWork < 0 || em.CancelledWork < 0 {
		t.Fatalf("negative work accounting: duplicate %v cancelled %v", em.DuplicateWork, em.CancelledWork)
	}
}

// TestRunHedgedGrayCopyWins is the canonical hedge story: the router,
// blind to a gray failure, parks a task on a crawling server; the delay
// trigger re-dispatches a copy to the healthy one, the copy wins, and the
// task's flow is the copy's — with the loser accounted as duplicate or
// cancelled work depending on cancel-mid-service.
func TestRunHedgedGrayCopyWins(t *testing.T) {
	inst := core.NewInstance(2, []core.Task{{Release: 0, Proc: 10}})
	plan := faults.Empty(2).Slow(0, 0, 1000, 10) // server 0 at 1/10 speed
	for _, cancel := range []bool{true, false} {
		hcfg := &hedge.Config{Delay: 2, CancelRunning: cancel}
		p := newHedgeCountProbe(1)
		s, em, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: plan, Hedge: hcfg, Probe: obs.Multi(p)})
		if err != nil {
			t.Fatal(err)
		}
		// EFT ties to server 0 (it cannot see the slowdown): the primary
		// would finish at t=100. The hedge fires at t=2, the copy runs on
		// server 1 over [2, 12) and wins.
		if s.Machine[0] != 1 {
			t.Fatalf("cancel=%v: winner on M%d, want the copy's server M2", cancel, s.Machine[0]+1)
		}
		if em.Flows[0] != 12 {
			t.Fatalf("cancel=%v: flow %v, want 12 (copy dispatched at 2, proc 10)", cancel, em.Flows[0])
		}
		if em.Makespan != 12 {
			t.Fatalf("cancel=%v: makespan %v, want 12 (losers don't extend it)", cancel, em.Makespan)
		}
		if !em.Hedged[0] || !em.HedgeWonByCopy[0] || em.HedgeCopyServer[0] != 1 || em.HedgeCopyAt[0] != 2 {
			t.Fatalf("cancel=%v: hedge vectors %v %v %d %v", cancel, em.Hedged[0], em.HedgeWonByCopy[0], em.HedgeCopyServer[0], em.HedgeCopyAt[0])
		}
		// The cancelled attempt is the primary, not an issued copy, so
		// HedgesCancelled stays 0 — the copy resolved as the win. The
		// primary's cancellation surfaces through OnHedgeCancel.
		if em.HedgesIssued != 1 || em.HedgeWinsCopy != 1 || em.HedgesCancelled != 0 {
			t.Fatalf("cancel=%v: counters issued=%d winsCopy=%d cancelled=%d", cancel, em.HedgesIssued, em.HedgeWinsCopy, em.HedgesCancelled)
		}
		if p.cancels != 1 {
			t.Fatalf("cancel=%v: %d OnHedgeCancel events, want 1 (the losing primary)", cancel, p.cancels)
		}
		if cancel {
			// Primary cancelled mid-service at t=12: 12 units burned, the
			// remaining 88 of its 100-unit slot reclaimed.
			if em.DuplicateWork != 12 || em.CancelledWork != 88 {
				t.Fatalf("cancel=true: duplicate %v cancelled %v, want 12 / 88", em.DuplicateWork, em.CancelledWork)
			}
			if em.Busy[0] != 12 {
				t.Fatalf("cancel=true: Busy[0]=%v, want 12", em.Busy[0])
			}
		} else {
			// Primary runs to completion at t=100 as pure duplicate work.
			if em.DuplicateWork != 100 || em.CancelledWork != 0 {
				t.Fatalf("cancel=false: duplicate %v cancelled %v, want 100 / 0", em.DuplicateWork, em.CancelledWork)
			}
			if em.Busy[0] != 100 {
				t.Fatalf("cancel=false: Busy[0]=%v, want 100", em.Busy[0])
			}
		}
		checkHedgeResolution(t, inst, em, p)
	}
}

// TestRunHedgedSingleLiveMember: a task whose processing set has exactly one
// member has no alternate server — the trigger fires and declines, issuing
// nothing, and the run matches the unhedged one exactly.
func TestRunHedgedSingleLiveMember(t *testing.T) {
	tasks := []core.Task{
		{Release: 0, Proc: 5, Set: core.NewProcSet(0)},
		{Release: 1, Proc: 5, Set: core.NewProcSet(0)},
	}
	inst := core.NewInstance(2, tasks)
	hcfg := &hedge.Config{Delay: 0.5}
	p := newHedgeCountProbe(2)
	_, em, err := NewArena().Run(inst, EFTRouter{}, Config{Hedge: hcfg, Probe: obs.Multi(p)})
	if err != nil {
		t.Fatal(err)
	}
	if em.HedgesIssued != 0 {
		t.Fatalf("issued %d hedges with no alternate server", em.HedgesIssued)
	}
	_, base, err := NewArena().Run(inst, EFTRouter{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameTimes(base.Flows, em.Flows) || base.Makespan != em.Makespan {
		t.Fatalf("a declined hedge perturbed the run: flows %v vs %v", em.Flows, base.Flows)
	}
	checkHedgeResolution(t, inst, em, p)
}

// TestRunHedgedTargetOutage: the copy's server crashes mid-flight. The copy
// is killed by the failover (never retried — copies are speculative), the
// primary carries the task, and the ledger resolves the copy as cancelled.
func TestRunHedgedTargetOutage(t *testing.T) {
	inst := core.NewInstance(2, []core.Task{{Release: 0, Proc: 10}})
	// Server 0 is slow, so the hedge copy lands on server 1 at t=2 — and
	// server 1 dies at t=5 with the copy running.
	plan := faults.Empty(2).Slow(0, 0, 1000, 10).Down(1, 5, 1000)
	hcfg := &hedge.Config{Delay: 2, CancelRunning: true}
	p := newHedgeCountProbe(1)
	s, em, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: plan, Hedge: hcfg, Probe: obs.Multi(p)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Machine[0] != 0 {
		t.Fatalf("winner on M%d, want the primary's server M1", s.Machine[0]+1)
	}
	if em.Flows[0] != 100 {
		t.Fatalf("flow %v, want 100 (primary on the 1/10-speed server)", em.Flows[0])
	}
	if em.HedgesIssued != 1 || em.HedgesCancelled != 1 || em.HedgeWinsPrimary != 1 || em.HedgeWinsCopy != 0 {
		t.Fatalf("counters issued=%d cancelled=%d winsPrimary=%d winsCopy=%d",
			em.HedgesIssued, em.HedgesCancelled, em.HedgeWinsPrimary, em.HedgeWinsCopy)
	}
	if em.DuplicateWork != 3 {
		t.Fatalf("duplicate work %v, want 3 (the copy ran [2,5) before the crash)", em.DuplicateWork)
	}
	checkHedgeResolution(t, inst, em, p)
}

// TestRunHedgedVictimDrainedMidFlight: an elastic scale-down drains the
// server holding a queued hedge copy. The copy is cancelled (never handed
// off), the primary completes the task, and no handoff is counted for it.
func TestRunHedgedVictimDrainedMidFlight(t *testing.T) {
	tasks := []core.Task{
		{Release: 0, Proc: 4},             // occupies M2 so the copy queues behind it
		{Release: 0.5, Proc: 10, Key: 1},  // the hedged task, primary on slow M1
		{Release: 1.0, Proc: 0.1, Key: 2}, // arrival that carries the scale-down script instant
	}
	inst := core.NewInstance(2, tasks)
	plan := faults.Empty(2).Slow(0, 0, 1000, 20)
	// Scale from 2 members down to 1 at t=3: machine 1 (the copy's server)
	// drains. Min=1 keeps machine 0.
	ecfg := &elastic.Config{Script: []elastic.Event{{At: 3, Delta: -1}}, Min: 1}
	hcfg := &hedge.Config{Delay: 1, CancelRunning: false}
	p := newHedgeCountProbe(3)
	_, em, err := NewArena().Run(inst, JSQRouter{}, Config{Plan: plan, Elastic: ecfg, Hedge: hcfg, Probe: obs.Multi(p)})
	if err != nil {
		t.Fatal(err)
	}
	if em.ScaleDowns != 1 {
		t.Fatalf("scale-downs %d, want 1", em.ScaleDowns)
	}
	for i := range tasks {
		if p.completions[i] != 1 {
			t.Fatalf("task %d completed %d times after the drain", i, p.completions[i])
		}
	}
	checkHedgeResolution(t, inst, em, p)
}

// TestRunHedgedTrimShedsPrimaryAndCopy: a drain hands a hedged task's
// primary onto the server that already queues its copy, and one watermark
// trim then sheds both. The copy is settled by the trim itself, so the
// primary's deferred copy kill must not cancel it a second time — busy time
// stays equal to completed work plus duplicate work, and no queue length
// goes negative.
func TestRunHedgedTrimShedsPrimaryAndCopy(t *testing.T) {
	tasks := []core.Task{
		{Release: 0, Proc: 100, Set: core.NewProcSet(0)}, // long runner on M1: the copy queues behind it
		{Release: 0, Proc: 10, Set: core.NewProcSet(1)},  // keeps M2 busy so the primary queues there
		{Release: 0.1, Proc: 1},                          // the hedged task: primary on M2, copy on M1
		{Release: 5, Proc: 1, Set: core.NewProcSet(0)},   // arrival whose watermark check trims M1
	}
	const hedged = 2
	inst := core.NewInstance(2, tasks)
	// Drain M2 at t=1: its running head stays, the queued primary hands off
	// to M1, behind its own copy.
	ecfg := &elastic.Config{Min: 1, Script: []elastic.Event{{At: 1, Delta: -1}}}
	// Newest-first ranks the primary (queued last) just ahead of its copy.
	cfg := &overload.Config{Shedder: &overload.Shedder{Policy: overload.DropNewest, Watermark: 2}}
	hcfg := &hedge.Config{Delay: 0.5}
	p := newHedgeCountProbe(len(tasks))
	arena := NewArena()
	_, em, err := arena.Run(inst, EFTRouter{}, Config{Overload: cfg, Elastic: ecfg, Hedge: hcfg, Probe: obs.Multi(p)})
	if err != nil {
		t.Fatal(err)
	}
	if em.Handoffs != 1 || em.HedgeCopyServer[hedged] != 0 || !em.Shed[hedged] || em.HedgesCancelled != 1 {
		t.Fatalf("scenario not reached: handoffs %d, copy server %d, shed %v, cancelled %d",
			em.Handoffs, em.HedgeCopyServer[hedged], em.Shed[hedged], em.HedgesCancelled)
	}
	var busy, completed core.Time
	for _, b := range em.Busy {
		busy += b
	}
	for i, task := range tasks {
		if !em.Shed[i] {
			completed += task.Proc
		}
	}
	if want := completed + em.DuplicateWork; busy != want {
		t.Fatalf("Σ busy %v, want completed work + duplicate work = %v", busy, want)
	}
	for j, q := range arena.st.QueueLen {
		if q != 0 {
			t.Fatalf("M%d queue length %d after the run, want 0", j+1, q)
		}
	}
	if em.CancelledWork != tasks[hedged].Proc {
		t.Fatalf("cancelled work %v, want the trimmed copy's slot (%v) counted once", em.CancelledWork, tasks[hedged].Proc)
	}
	checkHedgeResolution(t, inst, em, p)
}

// TestRunHedgedTiedPair: tied mode enqueues both attempts up front and
// revokes the loser the moment the first one reaches service.
func TestRunHedgedTiedPair(t *testing.T) {
	tasks := []core.Task{
		{Release: 0, Proc: 10},          // fills server 0 (RR)
		{Release: 0.5, Proc: 3, Key: 1}, // fills server 1 (RR)
		{Release: 1, Proc: 2, Key: 2},   // the tied pair: primary M1 (queued), copy M2 (queued)
	}
	inst := core.NewInstance(2, tasks)
	hcfg := &hedge.Config{Tied: true}
	p := newHedgeCountProbe(3)
	_, em, err := NewArena().Run(inst, &RoundRobinRouter{}, Config{Hedge: hcfg, Probe: obs.Multi(p)})
	if err != nil {
		t.Fatal(err)
	}
	if em.HedgesIssued != 3 {
		t.Fatalf("tied mode issued %d copies, want one per task", em.HedgesIssued)
	}
	if em.HedgesRevoked+em.HedgeWinsCopy+em.HedgesCancelled != 3 {
		t.Fatalf("tied resolution leak: revoked=%d winsCopy=%d cancelled=%d",
			em.HedgesRevoked, em.HedgeWinsCopy, em.HedgesCancelled)
	}
	if em.HedgesRevoked == 0 {
		t.Fatalf("no tied revocation happened (revoked=%d)", em.HedgesRevoked)
	}
	for i := range tasks {
		if p.completions[i] != 1 {
			t.Fatalf("task %d completed %d times under tied hedging", i, p.completions[i])
		}
	}
	checkHedgeResolution(t, inst, em, p)
}

// TestRunHedgedRetryRace is the regression for the retry-vs-hedge race: a
// crashed primary's retry and a completing copy must never both produce an
// effective completion. Randomized crash plans with aggressive retries and
// low hedge delays hammer the interleavings; the probe counts completions.
func TestRunHedgedRetryRace(t *testing.T) {
	rng := rand.New(rand.NewSource(551))
	for trial := 0; trial < 30; trial++ {
		m := 2 + rng.Intn(6)
		n := 20 + rng.Intn(120)
		inst := randomInstance(m, n, rng)
		horizon := inst.Tasks[n-1].Release + 10
		plan := faults.Generate(m, horizon, 10, 3, rand.New(rand.NewSource(int64(trial))))
		pol := RetryPolicy{MaxAttempts: 1 + rng.Intn(4), Backoff: rng.Float64(), Timeout: 5 + rng.Float64()*20}
		hcfg := &hedge.Config{Delay: 0.1 + rng.Float64(), CancelRunning: trial%2 == 0}
		if trial%3 == 0 {
			hcfg = &hedge.Config{Tied: true, CancelRunning: trial%2 == 0}
		}
		kind := allRouterKinds[trial%len(allRouterKinds)]
		router, _ := routerPair(kind, rng.Int63())
		p := newHedgeCountProbe(n)
		_, em, err := NewArena().Run(inst, router, Config{Plan: plan, Retry: pol, Hedge: hcfg, Probe: obs.Multi(p)})
		if err != nil {
			t.Fatalf("trial %d %s: %v", trial, kind, err)
		}
		checkHedgeResolution(t, inst, em, p)
		for i := range inst.Tasks {
			if p.completions[i] == 1 && (math.IsNaN(float64(em.Flows[i])) || em.Flows[i] <= 0) {
				t.Fatalf("trial %d: completed task %d has flow %v", trial, i, em.Flows[i])
			}
		}
	}
}

// TestRunHedgedQuantileTrigger: the pN trigger reads the live flow-time
// histogram — before MinSamples completions it stays disarmed (no Delay
// fallback configured), after warm-up it hedges stragglers. The router is
// round-robin, which (unlike EFT) cannot see the gray server's inflated
// completion times and keeps feeding it — exactly the blind-dispatch regime
// hedging is for.
func TestRunHedgedQuantileTrigger(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n := 400
	tasks := make([]core.Task, n)
	at := 0.0
	for i := range tasks {
		at += rng.ExpFloat64() / 2 // underloaded: 4 servers, arrival rate 2
		tasks[i] = core.Task{Release: at, Proc: 0.5 + rng.Float64(), Key: i % 4}
	}
	inst := core.NewInstance(4, tasks)
	// One gray server makes stragglers: round-robin keeps sending it work.
	plan := faults.Empty(4).Slow(0, 10, 1e6, 8)
	hcfg := &hedge.Config{Quantile: 0.95, MinSamples: 50}
	p := newHedgeCountProbe(n)
	_, em, err := NewArena().Run(inst, &RoundRobinRouter{}, Config{Plan: plan, Hedge: hcfg, Probe: obs.Multi(p)})
	if err != nil {
		t.Fatal(err)
	}
	if em.HedgesIssued == 0 {
		t.Fatal("p95 trigger never fired under a gray fault")
	}
	checkHedgeResolution(t, inst, em, p)
	_, base, err := NewArena().Run(inst, &RoundRobinRouter{}, Config{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if hp, bp := maxFlow(em.Flows), maxFlow(base.Flows); hp >= bp/2 {
		t.Fatalf("p95 hedging did not substantially improve the worst flow: %v (hedged) vs %v (base)", hp, bp)
	}
}

func maxFlow(fs []core.Time) core.Time {
	var mx core.Time
	for _, f := range fs {
		if !math.IsNaN(float64(f)) && f > mx {
			mx = f
		}
	}
	return mx
}

// TestHedgeConfigValidate covers the config surface.
func TestHedgeConfigValidate(t *testing.T) {
	cases := []struct {
		cfg *hedge.Config
		ok  bool
	}{
		{nil, true},
		{&hedge.Config{Delay: 1}, true},
		{&hedge.Config{Quantile: 0.99}, true},
		{&hedge.Config{Tied: true}, true},
		{&hedge.Config{}, false},               // no trigger
		{&hedge.Config{Delay: -1}, false},      // negative delay
		{&hedge.Config{Quantile: 1.0}, false},  // quantile out of range
		{&hedge.Config{Quantile: -0.5}, false}, // quantile out of range
		{&hedge.Config{Delay: core.Time(math.Inf(1))}, false},
		{&hedge.Config{Delay: 1, MinSamples: -1}, false},
		{&hedge.Config{Delay: 1, MaxHedges: -1}, false},
	}
	for i, c := range cases {
		err := c.cfg.Validate()
		if c.ok && err != nil {
			t.Errorf("case %d: unexpected error %v", i, err)
		}
		if !c.ok && err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, c.cfg)
		}
	}
	inst := core.NewInstance(2, []core.Task{{Release: 0, Proc: 1}})
	if _, _, err := NewArena().Run(inst, EFTRouter{}, Config{Hedge: &hedge.Config{}}); err == nil {
		t.Error("Arena.Run accepted a triggerless hedge config")
	}
}

// FuzzHedgedDispatch drives Config.Hedge through randomized instances, fault
// plans, retry policies and hedge configs, asserting the hedge ledger and
// the exactly-one-effective-completion invariant on every run.
func FuzzHedgedDispatch(f *testing.F) {
	f.Add(int64(1), uint8(4), uint16(60), uint8(0), false, false, uint8(20))
	f.Add(int64(42), uint8(2), uint16(10), uint8(1), true, true, uint8(0))
	f.Add(int64(7), uint8(6), uint16(200), uint8(2), false, true, uint8(95))
	f.Add(int64(99), uint8(3), uint16(35), uint8(3), true, false, uint8(50))
	f.Fuzz(func(t *testing.T, seed int64, m8 uint8, n16 uint16, kind8 uint8, tied, cancel bool, q8 uint8) {
		m := 2 + int(m8%7)
		n := 1 + int(n16%300)
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(m, n, rng)
		var plan *faults.Plan
		if seed%2 == 0 {
			horizon := inst.Tasks[n-1].Release + 10
			plan = faults.Generate(m, horizon, 15, 4, rand.New(rand.NewSource(seed+1)))
		}
		pol := RetryPolicy{MaxAttempts: int(seed & 3), Backoff: float64((seed%3+3)%3) * 0.2}
		hcfg := &hedge.Config{Tied: tied, CancelRunning: cancel}
		if !tied {
			if q := float64(q8%100) / 100; q > 0 {
				hcfg.Quantile = q
				hcfg.MinSamples = 10
			} else {
				hcfg.Delay = 0.5
			}
			if hcfg.Quantile == 0 && hcfg.Delay == 0 {
				hcfg.Delay = 1
			}
		}
		kind := allRouterKinds[int(kind8)%len(allRouterKinds)]
		router, _ := routerPair(kind, seed)
		p := newHedgeCountProbe(n)
		_, em, err := NewArena().Run(inst, router, Config{Plan: plan, Retry: pol, Hedge: hcfg, Probe: obs.Multi(p)})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		checkHedgeResolution(t, inst, em, p)
	})
}

// TestRunHedgedDeferredTriggerKeepsTieOrder pins the event order of a hedge
// trigger that dispatch deferred. Task A's first attempt (on M4) ends at 1.5,
// before its trigger instant 2, so its trigger is only claimed; task B's
// trigger, for the same instant, is pushed after that claim. At 0.5 A's
// attempt leaves M4 without completing (a crash, or a scale-down handoff) and
// lands on M1 with end 2.7, so its trigger goes live again. At instant 2 A's
// trigger must fire before B's, as it would have had it been pushed at
// dispatch: A's copy takes M2, the one server both copies want, and B's
// copy queues behind it. A re-armed trigger that took a fresh queue position
// would fire after B's and send A's copy to M3 instead.
func TestRunHedgedDeferredTriggerKeepsTieOrder(t *testing.T) {
	tasks := []core.Task{
		{Release: 0, Proc: 2.2, Set: core.NewProcSet(0)},
		{Release: 0, Proc: 2.5, Set: core.NewProcSet(1)}, // M2: both copies' target
		{Release: 0, Proc: 1.2, Set: core.NewProcSet(2)},
		{Release: 0, Proc: 1, Set: core.NewProcSet(3)},    // runs on M4 while A queues behind it
		{Release: 0, Proc: 0.5},                           // A: [1, 1.5) on M4, trigger at 2 claimed
		{Release: 0, Proc: 5, Set: core.NewProcSet(1, 2)}, // B: [1.2, 6.2) on M3, trigger at 2 pushed
	}
	const a, b = 4, 5
	hcfg := &hedge.Config{Delay: 2}
	nan := math.NaN()
	wantCopyAt := []core.Time{nan, nan, nan, nan, 2, 2}
	for _, tc := range []struct {
		name      string
		plan      *faults.Plan
		ecfg      *elastic.Config
		wantSrv   []int
		wantMach  []int
		wantStart []core.Time
	}{
		{
			name:      "crash",
			plan:      faults.Empty(4).Down(3, 0.5, 100),
			wantSrv:   []int{-1, -1, -1, -1, 1, 1},
			wantMach:  []int{0, 1, 2, 3, 0, 2},
			wantStart: []core.Time{0, 0, 0, 100, 2.2, 1.2},
		},
		{
			name:      "scale-down handoff",
			plan:      faults.Empty(4),
			ecfg:      &elastic.Config{Script: []elastic.Event{{At: 0.5, Delta: -1}}, Min: 1},
			wantSrv:   []int{-1, -1, -1, -1, 1, 1},
			wantMach:  []int{0, 1, 2, 3, 0, 2},
			wantStart: []core.Time{0, 0, 0, 0, 2.2, 1.2},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst := core.NewInstance(4, tasks)
			p := newHedgeCountProbe(len(tasks))
			s, em, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: tc.plan, Elastic: tc.ecfg, Hedge: hcfg, Probe: obs.Multi(p)})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(em.HedgeCopyServer, tc.wantSrv) {
				t.Fatalf("HedgeCopyServer = %v, want %v (A's copy must take M2 before B's)", em.HedgeCopyServer, tc.wantSrv)
			}
			for i, at := range em.HedgeCopyAt {
				if w := wantCopyAt[i]; at != w && !(math.IsNaN(float64(at)) && math.IsNaN(w)) {
					t.Fatalf("HedgeCopyAt = %v, want %v", em.HedgeCopyAt, wantCopyAt)
				}
			}
			if !reflect.DeepEqual(s.Machine, tc.wantMach) || !reflect.DeepEqual(s.Start, tc.wantStart) {
				t.Fatalf("schedule machines %v starts %v, want %v %v", s.Machine, s.Start, tc.wantMach, tc.wantStart)
			}
			if !em.Hedged[a] || !em.Hedged[b] {
				t.Fatalf("hedged %v: A's re-armed trigger and B's must both issue", em.Hedged)
			}
			checkHedgeResolution(t, inst, em, p)
		})
	}
}

// TestHedgeTriggerDeferredOffGrayServers: a first attempt timed to end by
// its trigger instant defers the trigger on a healthy server, and pushes it
// on a server with slowdown segments, whose ends come from
// faults.FinishTime (rearmHedge). Both tasks finish at 1, before their
// triggers at 2, so neither is hedged either way.
func TestHedgeTriggerDeferredOffGrayServers(t *testing.T) {
	inst := core.NewInstance(2, []core.Task{
		{Release: 0, Proc: 1, Set: core.NewProcSet(0)},
		{Release: 0, Proc: 1, Set: core.NewProcSet(1)},
	})
	plan := faults.Empty(2).Slow(1, 100, 200, 2) // M2 is gray only later on
	a := NewArena()
	_, em, err := a.Run(inst, EFTRouter{}, Config{Plan: plan, Hedge: &hedge.Config{Delay: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if em.HedgesIssued != 0 {
		t.Fatalf("%d hedges issued, want none", em.HedgesIssued)
	}
	if a.hd.trigSeq[0] == 0 || a.hd.trigSeq[1] != 0 {
		t.Fatalf("trigSeq = %v: want task 0's trigger deferred and task 1's pushed", a.hd.trigSeq)
	}
}
